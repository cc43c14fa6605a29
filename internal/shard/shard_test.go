package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"skybench/internal/dataset"
	"skybench/internal/point"
	"skybench/internal/verify"
)

func TestSplit(t *testing.T) {
	for _, tc := range []struct{ n, p, want int }{
		{0, 4, 0},  // empty input → no ranges
		{10, 1, 1}, // unsharded
		{10, 3, 3}, // uneven split
		{10, 10, 10},
		{3, 8, 3},  // p clamped to n
		{10, 0, 1}, // p clamped up to 1
		{10, -2, 1},
	} {
		ranges := Split(tc.n, tc.p)
		if len(ranges) != tc.want {
			t.Fatalf("Split(%d, %d) = %d ranges, want %d", tc.n, tc.p, len(ranges), tc.want)
		}
		next := 0
		for i, r := range ranges {
			if r.Lo != next {
				t.Fatalf("Split(%d, %d): range %d starts at %d, want %d", tc.n, tc.p, i, r.Lo, next)
			}
			if r.Len() < 1 {
				t.Fatalf("Split(%d, %d): empty range %d", tc.n, tc.p, i)
			}
			next = r.Hi
		}
		if tc.n > 0 && next != tc.n {
			t.Fatalf("Split(%d, %d) covers [0, %d), want [0, %d)", tc.n, tc.p, next, tc.n)
		}
		// Balance: range lengths differ by at most one.
		lo, hi := tc.n, 0
		for _, r := range ranges {
			lo, hi = min(lo, r.Len()), max(hi, r.Len())
		}
		if tc.n > 0 && hi-lo > 1 {
			t.Fatalf("Split(%d, %d) unbalanced: lengths in [%d, %d]", tc.n, tc.p, lo, hi)
		}
	}
}

// checkMerge hands Merge the given parts of flat's rows — each part's
// local order shuffled, the recount a brute force that answers in
// descending position order — and requires the oracle's band back:
// rows ascending, counts parallel, positions pointing at those rows,
// through the expected path.
func checkMerge(t *testing.T, label string, flat []float64, d, k int, parts []Part, wantIdx []int, wantCnt []int32, wantPath string) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(flat) + k)))
	var cand []int
	for i, p := range parts {
		p.Idx = slices.Clone(p.Idx)
		rng.Shuffle(len(p.Idx), func(a, b int) { p.Idx[a], p.Idx[b] = p.Idx[b], p.Idx[a] })
		parts[i] = p
		for _, li := range p.Idx {
			cand = append(cand, p.Off+li)
		}
	}
	buf := make([]float64, 0, len(cand)*d)
	for _, gi := range cand {
		buf = append(buf, flat[gi*d:(gi+1)*d]...)
	}
	recount := func(_ context.Context, vals []float64, n, d, k int) ([]int, []int32, uint64, error) {
		pos, cnt := verify.BruteForceSkyband(point.FromFlat(vals, n, d), k)
		slices.Reverse(pos)
		slices.Reverse(cnt)
		if k == 1 {
			cnt = nil // the Recount contract, like the engine's
		}
		return pos, cnt, uint64(n), nil
	}
	var dts uint64
	m, err := Merge(context.Background(), parts, buf, d, k, recount, &dts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Path != wantPath {
		t.Fatalf("%s: %d candidates merged through %q, want %q", label, len(cand), m.Path, wantPath)
	}
	if !slices.Equal(m.Rows, wantIdx) {
		t.Fatalf("%s: merged rows %v, want %v", label, m.Rows, wantIdx)
	}
	if !slices.Equal(m.Counts, wantCnt) {
		t.Fatalf("%s: merged counts %v, want %v", label, m.Counts, wantCnt)
	}
	for i, pos := range m.Pos {
		if cand[pos] != m.Rows[i] {
			t.Fatalf("%s: Pos[%d] = %d is row %d, Rows says %d", label, i, pos, cand[pos], m.Rows[i])
		}
	}
	if len(m.Pos) != len(m.Rows) || (len(cand) > 1 && dts == 0) {
		t.Fatalf("%s: %d positions for %d rows, %d dominance tests over %d candidates", label, len(m.Pos), len(m.Rows), dts, len(cand))
	}
}

// TestMergeBandOracle is the soundness check of the shard merge: for
// every distribution, dimensionality, k, and shard count, the k-skyband
// of the union of per-shard k-skybands (with recounted dominators) must
// equal the global brute-force k-skyband with exact counts — through
// Merge, whose two paths are driven by unions one candidate either side
// of MergeKernelMax.
func TestMergeBandOracle(t *testing.T) {
	const n = 400
	for _, dist := range dataset.AllDistributions {
		for _, d := range []int{2, 5, 8} {
			m := dataset.Generate(dist, n, d, 99)
			flat := m.Flat()
			for _, k := range []int{1, 2, 4} {
				wantIdx, wantCnt := verify.BruteForceSkyband(m, k)
				if k == 1 {
					wantCnt = nil
				}
				for _, p := range []int{1, 2, 3, 7} {
					label := fmt.Sprintf("%s d=%d k=%d p=%d", dist, d, k, p)
					ranges := Split(n, p)
					// Per-shard brute-force bands.
					parts := make([]Part, len(ranges))
					for i, r := range ranges {
						sub := point.FromFlat(flat[r.Lo*d:r.Hi*d], r.Len(), d)
						idx, _ := verify.BruteForceSkyband(sub, k)
						parts[i] = Part{Off: r.Lo, Idx: idx}
					}
					checkMerge(t, label, flat, d, k, parts, wantIdx, wantCnt, MergePathKernel)
				}
				// Every row a candidate, so the union's size is chosen: the
				// last one the kernel takes, and the first one it does not.
				for _, nc := range []int{MergeKernelMax, MergeKernelMax + 1} {
					all := dataset.Generate(dist, nc, d, 7)
					wantIdx, wantCnt := verify.BruteForceSkyband(all, k)
					path := MergePathKernel
					if nc > MergeKernelMax {
						path = MergePathEngine
					}
					if k == 1 {
						wantCnt = nil
					}
					var parts []Part
					for _, r := range Split(nc, 3) {
						idx := make([]int, r.Len())
						for i := range idx {
							idx[i] = i
						}
						parts = append(parts, Part{Off: r.Lo, Idx: idx})
					}
					checkMerge(t, fmt.Sprintf("%s d=%d k=%d union=%d", dist, d, k, nc), all.Flat(), d, k, parts, wantIdx, wantCnt, path)
				}
			}
		}
	}
}

// TestMergeBandDegenerate covers the edges the property loop skips.
func TestMergeBandDegenerate(t *testing.T) {
	if keep, counts, _ := mergeBand(context.Background(), nil, 0, 3, 2, nil); keep != nil || counts != nil {
		t.Fatalf("empty merge = (%v, %v), want (nil, nil)", keep, counts)
	}
	// Identical points never dominate each other: all survive any k.
	vals := []float64{1, 2, 1, 2, 1, 2}
	keep, counts, err := mergeBand(context.Background(), vals, 3, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(keep) != 3 {
		t.Fatalf("identical points: kept %v, want all 3", keep)
	}
	for _, c := range counts {
		if c != 0 {
			t.Fatalf("identical points: counts %v, want zeros", counts)
		}
	}
	// k clamps up to 1.
	keep, counts, err = mergeBand(context.Background(), vals, 3, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(keep) != 3 || counts != nil {
		t.Fatalf("k=0 merge = (%v, %v), want all three, nil counts", keep, counts)
	}
}

// TestMergeBandEqualNormDominator: a dominator whose computed L1 norm
// ties its victim's is still counted. q exceeds p by one ulp in one
// coordinate, so p ≺ q, and both norms round to 7.200000000000001; the
// recount must drop q at k = 1 and count p against it at k = 2, in
// either input order.
func TestMergeBandEqualNormDominator(t *testing.T) {
	const d = 8
	p := make([]float64, d)
	for j := range p {
		p[j] = 0.9
	}
	q := slices.Clone(p)
	q[0] = math.Nextafter(0.9, 1)
	if point.L1(p) != point.L1(q) || !point.Dominates(p, q) {
		t.Fatalf("setup: L1 %v and %v, p ≺ q %v; want equal norms and dominance", point.L1(p), point.L1(q), point.Dominates(p, q))
	}
	for _, pFirst := range []bool{true, false} {
		vals, pos := append(slices.Clone(p), q...), [2]int{0, 1}
		if !pFirst {
			vals, pos = append(slices.Clone(q), p...), [2]int{1, 0}
		}
		keep, _, err := mergeBand(context.Background(), vals, 2, d, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(keep, []int{pos[0]}) {
			t.Errorf("p first %v, k = 1: kept %v, want only p at %d", pFirst, keep, pos[0])
		}
		keep, counts, err := mergeBand(context.Background(), vals, 2, d, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(keep, pos[:]) || !slices.Equal(counts, []int32{0, 1}) {
			t.Errorf("p first %v, k = 2: kept %v with counts %v, want %v with [0 1]", pFirst, keep, counts, pos)
		}
	}
}

// TestMergeBandCancellation: a merge whose context is already dead must
// abandon promptly with the context's error instead of finishing the
// quadratic recount.
func TestMergeBandCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, d := 400, 3
	rng := rand.New(rand.NewSource(9))
	vals := make([]float64, n*d)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	keep, counts, err := mergeBand(ctx, vals, n, d, 2, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if keep != nil || counts != nil {
		t.Fatalf("canceled merge leaked a partial result: (%v, %v)", keep, counts)
	}
}

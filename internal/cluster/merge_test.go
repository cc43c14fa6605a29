package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"skybench"
	"skybench/internal/dataset"
	"skybench/internal/point"
	"skybench/internal/verify"
	"skybench/serve"
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
		ranges := split(tc.n, tc.p)
		if len(ranges) != tc.want {
			t.Fatalf("split(%d, %d) = %d ranges, want %d", tc.n, tc.p, len(ranges), tc.want)
		}
		next := 0
		for i, r := range ranges {
			if r.Lo != next {
				t.Fatalf("split(%d, %d): range %d starts at %d, want %d", tc.n, tc.p, i, r.Lo, next)
			}
			if r.Hi-r.Lo < 1 {
				t.Fatalf("split(%d, %d): empty range %d", tc.n, tc.p, i)
			}
			next = r.Hi
		}
		if tc.n > 0 && next != tc.n {
			t.Fatalf("split(%d, %d) covers [0, %d), want [0, %d)", tc.n, tc.p, next, tc.n)
		}
		// Balance: range lengths differ by at most one.
		lo, hi := tc.n, 0
		for _, r := range ranges {
			lo, hi = min(lo, r.Hi-r.Lo), max(hi, r.Hi-r.Lo)
		}
		if tc.n > 0 && hi-lo > 1 {
			t.Fatalf("split(%d, %d) unbalanced: lengths in [%d, %d]", tc.n, tc.p, lo, hi)
		}
	}
}

// checkMerge hands merge the given per-part bands of flat's rows — each
// part's local order shuffled — and requires the oracle's band back:
// positions pointing at its rows in ascending row order, counts
// parallel, and the dominance tests booked.
func checkMerge(t *testing.T, label string, flat []float64, d, k int, parts []WorkerSpec, bands [][]int, wantIdx []int, wantCnt []int32) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(flat) + k)))
	var rows []int
	for i, r := range parts {
		band := slices.Clone(bands[i])
		rng.Shuffle(len(band), func(a, b int) { band[a], band[b] = band[b], band[a] })
		for _, li := range band {
			rows = append(rows, r.Lo+li)
		}
	}
	vals := make([]float64, 0, len(rows)*d)
	for _, gi := range rows {
		vals = append(vals, flat[gi*d:(gi+1)*d]...)
	}
	pos, counts, dts, err := merge(context.Background(), testEngine, rows, vals, d, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(pos))
	for j, p := range pos {
		got[j] = rows[p]
	}
	if !slices.Equal(got, wantIdx) {
		t.Fatalf("%s: merged rows %v, want %v", label, got, wantIdx)
	}
	if !slices.Equal(counts, wantCnt) {
		t.Fatalf("%s: merged counts %v, want %v", label, counts, wantCnt)
	}
	if len(rows) > 1 && dts == 0 {
		t.Fatalf("%s: no dominance tests booked over %d candidates", label, len(rows))
	}
}

// TestMergeOracle is the soundness check of the merge: for every
// distribution, dimensionality, k, and part count, one engine run over
// the union of per-part k-skybands must return the global brute-force
// k-skyband with exact counts — and so must a union of every row, large
// enough that the engine's partition index does real work.
func TestMergeOracle(t *testing.T) {
	const n, large = 400, 1100
	for _, dist := range dataset.AllDistributions {
		for _, d := range []int{2, 5, 8} {
			m := dataset.Generate(dist, n, d, 99)
			flat := m.Flat()
			all := dataset.Generate(dist, large, d, 7)
			for _, k := range []int{1, 2, 4} {
				wantIdx, wantCnt := verify.BruteForceSkyband(m, k)
				if k == 1 {
					wantCnt = nil
				}
				for _, p := range []int{1, 2, 3, 7} {
					parts := split(n, p)
					bands := make([][]int, len(parts))
					for i, r := range parts {
						sub := point.FromFlat(flat[r.Lo*d:r.Hi*d], r.Hi-r.Lo, d)
						bands[i], _ = verify.BruteForceSkyband(sub, k)
					}
					checkMerge(t, fmt.Sprintf("%s d=%d k=%d p=%d", dist, d, k, p), flat, d, k, parts, bands, wantIdx, wantCnt)
				}
				wantIdx, wantCnt = verify.BruteForceSkyband(all, k)
				if k == 1 {
					wantCnt = nil
				}
				parts := split(large, 3)
				bands := make([][]int, len(parts))
				for i, r := range parts {
					for li := range r.Hi - r.Lo {
						bands[i] = append(bands[i], li)
					}
				}
				checkMerge(t, fmt.Sprintf("%s d=%d k=%d union=%d", dist, d, k, large), all.Flat(), d, k, parts, bands, wantIdx, wantCnt)
			}
		}
	}
}

// TestMergeDegenerate covers the edges the property loop skips.
func TestMergeDegenerate(t *testing.T) {
	ctx := context.Background()
	if pos, counts, _, err := merge(ctx, testEngine, nil, nil, 3, 2, nil); err != nil || len(pos) != 0 || counts != nil {
		t.Fatalf("empty merge = (%v, %v, %v), want nothing", pos, counts, err)
	}
	// Identical points never dominate each other: all survive any k.
	rows, vals := []int{5, 3, 9}, []float64{1, 2, 1, 2, 1, 2}
	pos, counts, _, err := merge(ctx, testEngine, rows, vals, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pos, []int{1, 0, 2}) || !slices.Equal(counts, []int32{0, 0, 0}) {
		t.Fatalf("identical points: positions %v counts %v, want [1 0 2] in row order with zero counts", pos, counts)
	}
	// k = 0 is the skyline: no counts.
	pos, counts, _, err = merge(ctx, testEngine, rows, vals, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != 3 || counts != nil {
		t.Fatalf("k=0 merge = (%v, %v), want all three, nil counts", pos, counts)
	}
}

// TestMergeCancellation: a merge whose context is already dead returns
// the engine's cancellation error and no partial result.
func TestMergeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, d := 400, 3
	rng := rand.New(rand.NewSource(9))
	rows, vals := make([]int, n), make([]float64, n*d)
	for i := range rows {
		rows[i] = i
	}
	for i := range vals {
		vals[i] = rng.Float64()
	}
	pos, counts, _, err := merge(ctx, testEngine, rows, vals, d, 2, nil)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, skybench.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if pos != nil || counts != nil {
		t.Fatalf("canceled merge leaked a partial result: (%v, %v)", pos, counts)
	}
}

// TestNonFiniteWorkerValueRefused: a worker row holding NaN or ±Inf is
// a malformed reply, refused before it reaches the merge.
func TestNonFiniteWorkerValueRefused(t *testing.T) {
	w := &worker{spec: WorkerSpec{Addr: "w", Lo: 4, Hi: 12}}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := &serve.QueryResponse{
			QueryHead: serve.QueryHead{Count: 2, Stats: serve.QueryStats{InputSize: 8}},
			QueryRows: serve.QueryRows{Indices: []int{0, 3}, Values: [][]float64{{0.5, 0.5}, {v, 0}}},
		}
		if err := validateResp(w, resp, 2); !errors.Is(err, errMalformed) {
			t.Errorf("value %v: validateResp = %v, want errMalformed", v, err)
		}
	}
}

// equalNormRows is the equal-norm probe: n rows uniform in
// [0.85, 0.95)^d, then pairs one-ulp pairs. The first row of pair j is
// 0.9 everywhere but coordinate j mod d, which is math.Nextafter(0.9, 1);
// the second is 0.9 everywhere and dominates the first, and for most j
// the two computed L1 norms are equal (DESIGN.md §9, "Numeric
// precondition").
func equalNormRows(n, d, pairs int) []float64 {
	rng := rand.New(rand.NewSource(1))
	flat := make([]float64, 0, (n+2*pairs)*d)
	for range n * d {
		flat = append(flat, 0.85+0.1*rng.Float64())
	}
	for j := range pairs {
		for c := range d {
			if c == j%d {
				flat = append(flat, math.Nextafter(0.9, 1))
			} else {
				flat = append(flat, 0.9)
			}
		}
		for range d {
			flat = append(flat, 0.9)
		}
	}
	return flat
}

// TestClusterEqualNormTies runs the equal-norm probe (d = 8, n ∈ {2, 50}
// plus 20 one-ulp pairs, k ∈ {1, 3}) through 2- and 4-worker clusters:
// pairs straddle worker boundaries, so a dominator and its tied-norm
// victim meet only in the merge, which must return the brute-force band,
// set and counts.
func TestClusterEqualNormTies(t *testing.T) {
	const d, pairs = 8, 20
	for _, n := range []int{2, 50} {
		flat := equalNormRows(n, d, pairs)
		rows := len(flat) / d
		m := point.FromFlat(flat, rows, d)
		ties := 0
		for i := n; i < rows; i += 2 {
			if point.L1(m.Row(i)) == point.L1(m.Row(i+1)) {
				ties++
			}
		}
		if ties == 0 {
			t.Fatalf("n=%d: no pair ties its computed norms; the probe tests nothing", n)
		}
		for _, nw := range []int{2, 4} {
			co := startCluster(t, flat, rows, d, nw, FailFast)
			for _, k := range []int{1, 3} {
				want, wantCnt := verify.BruteForceSkyband(m, k)
				if k == 1 {
					wantCnt = nil
				}
				res, err := co.Run(context.Background(), skybench.Query{SkybandK: k})
				if err != nil {
					t.Fatal(err)
				}
				if !verify.SameBand(res.Indices, res.Counts, want, wantCnt) {
					t.Errorf("n=%d workers=%d k=%d: %d rows %v counts %v, oracle %d rows %v counts %v",
						n, nw, k, len(res.Indices), res.Indices, res.Counts, len(want), want, wantCnt)
				}
			}
		}
	}
}

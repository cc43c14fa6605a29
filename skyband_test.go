package skybench_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"skybench"

	"skybench/internal/dataset"
	"skybench/internal/point"
	"skybench/internal/verify"
)

// stagedMatrix applies the preference rewrite to m so the brute-force
// oracle sees exactly what the engine computed over.
func stagedMatrix(t *testing.T, m point.Matrix, prefs []skybench.Pref) point.Matrix {
	t.Helper()
	if prefs == nil {
		return m
	}
	ops := make([]point.PrefOp, len(prefs))
	for i, p := range prefs {
		switch p {
		case skybench.Min:
			ops[i] = point.PrefKeep
		case skybench.Max:
			ops[i] = point.PrefNegate
		case skybench.Ignore:
			ops[i] = point.PrefDrop
		default:
			t.Fatalf("unhandled preference %v", p)
		}
	}
	de := point.EffectiveDims(ops)
	dst := make([]float64, m.N()*de)
	point.StagePrefs(dst, m.Flat(), m.N(), m.D(), ops)
	return point.FromFlat(dst, m.N(), de)
}

// TestEngineSkybandOracle is the acceptance cross-check: k-skyband
// output (indices and exact dominator counts) for Hybrid and Q-Flow
// must match the brute-force dominator-count oracle, across the paper's
// three distributions × min/max/subspace preference sets on datasets up
// to n = 2048.
func TestEngineSkybandOracle(t *testing.T) {
	eng := skybench.NewEngine(4)
	defer eng.Close()
	ctx := context.Background()

	prefCases := []struct {
		name  string
		prefs []skybench.Pref
	}{
		{"min", nil},
		{"max", []skybench.Pref{skybench.Max, skybench.Max, skybench.Min, skybench.Max, skybench.Min, skybench.Max}},
		{"subspace", []skybench.Pref{skybench.Min, skybench.Ignore, skybench.Max, skybench.Ignore, skybench.Min, skybench.Min}},
	}
	for _, dist := range dataset.AllDistributions {
		for _, pc := range prefCases {
			for _, n := range []int{64, 777, 2048} {
				m := dataset.Generate(dist, n, 6, int64(n)+int64(dist))
				ds, err := skybench.DatasetFromFlat(m.Flat(), m.N(), m.D())
				if err != nil {
					t.Fatal(err)
				}
				staged := stagedMatrix(t, m, pc.prefs)
				for _, k := range []int{2, 3, 8} {
					wantIdx, wantCnt := verify.BruteForceSkyband(staged, k)
					for _, alg := range []skybench.Algorithm{skybench.Hybrid, skybench.QFlow} {
						res, err := eng.Run(ctx, ds, skybench.Query{
							Algorithm: alg, Prefs: pc.prefs, SkybandK: k,
						})
						if err != nil {
							t.Fatalf("%s/%s/%s n=%d k=%d: %v", alg, dist, pc.name, n, k, err)
						}
						if !verify.SameBand(res.Indices, res.Counts, wantIdx, wantCnt) {
							t.Fatalf("%s/%s/%s n=%d k=%d: band mismatch (%d points, oracle %d)",
								alg, dist, pc.name, n, k, len(res.Indices), len(wantIdx))
						}
						if res.Stats.SkylineSize != len(wantIdx) {
							t.Fatalf("%s: Stats.SkylineSize %d, want %d", alg, res.Stats.SkylineSize, len(wantIdx))
						}
					}
				}
			}
		}
	}
}

// TestEngineSkybandEdgeCases is the table-driven edge sweep of the
// query surface: degenerate datasets and band parameters that stress
// boundaries rather than bulk behavior.
func TestEngineSkybandEdgeCases(t *testing.T) {
	eng := skybench.NewEngine(2)
	defer eng.Close()
	ctx := context.Background()

	ident := func(n, d int) [][]float64 {
		rows := make([][]float64, n)
		for i := range rows {
			row := make([]float64, d)
			for j := range row {
				row[j] = 0.5
			}
			rows[i] = row
		}
		return rows
	}
	// Duplicates on the band boundary: two copies of a point dominated
	// by exactly one other. Coincident points never dominate each other,
	// so at k=2 both duplicates are in (count 1 each); at k=1 both out.
	dupBoundary := [][]float64{
		{0, 0},   // dominates both duplicates
		{1, 1},   // duplicate A
		{1, 1},   // duplicate B
		{2, 0.5}, // dominated by {0,0} only
	}

	cases := []struct {
		name     string
		rows     [][]float64
		k        int
		alg      skybench.Algorithm
		alpha    int
		wantIdx  []int
		wantCnts []int32 // nil for k<=1
	}{
		{name: "empty", rows: nil, k: 3, wantIdx: nil},
		{name: "single-k1", rows: [][]float64{{1, 2, 3}}, k: 1, wantIdx: []int{0}},
		{name: "single-k5", rows: [][]float64{{1, 2, 3}}, k: 5, wantIdx: []int{0}, wantCnts: []int32{0}},
		{name: "identical-k1", rows: ident(7, 3), k: 1, wantIdx: []int{0, 1, 2, 3, 4, 5, 6}},
		{name: "identical-k3", rows: ident(7, 3), k: 3, wantIdx: []int{0, 1, 2, 3, 4, 5, 6},
			wantCnts: []int32{0, 0, 0, 0, 0, 0, 0}},
		{name: "dup-boundary-k1", rows: dupBoundary, k: 1, wantIdx: []int{0}},
		{name: "dup-boundary-k2", rows: dupBoundary, k: 2, wantIdx: []int{0, 1, 2, 3},
			wantCnts: []int32{0, 1, 1, 1}},
		// d=1, k=2: the two coincident {1}s are undominated; {2} has two
		// dominators (both {1}s) and is out; {3} has three and is out.
		{name: "d1-k2", rows: [][]float64{{3}, {1}, {2}, {1}}, k: 2, wantIdx: []int{1, 3},
			wantCnts: []int32{0, 0}},
		{name: "n-smaller-than-alpha", rows: dupBoundary, k: 2, alpha: 1 << 12, wantIdx: []int{0, 1, 2, 3},
			wantCnts: []int32{0, 1, 1, 1}},
		{name: "k-geq-n", rows: dupBoundary, k: 4, wantIdx: []int{0, 1, 2, 3},
			wantCnts: []int32{0, 1, 1, 1}},
		{name: "qflow-k-geq-n", rows: dupBoundary, k: 100, alg: skybench.QFlow, wantIdx: []int{0, 1, 2, 3},
			wantCnts: []int32{0, 1, 1, 1}},
	}
	for _, tc := range cases {
		for _, alg := range []skybench.Algorithm{skybench.Hybrid, skybench.QFlow} {
			if tc.alg != 0 && alg != tc.alg {
				continue
			}
			var ds *skybench.Dataset
			var err error
			if len(tc.rows) > 0 {
				if ds, err = skybench.NewDataset(tc.rows); err != nil {
					t.Fatal(err)
				}
			} else {
				ds = &skybench.Dataset{}
			}
			res, err := eng.Run(ctx, ds, skybench.Query{Algorithm: alg, SkybandK: tc.k, Alpha: tc.alpha})
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, alg, err)
			}
			if !verify.SameBand(res.Indices, res.Counts, tc.wantIdx, tc.wantCnts) {
				t.Fatalf("%s/%s: got %v counts %v, want %v counts %v",
					tc.name, alg, res.Indices, res.Counts, tc.wantIdx, tc.wantCnts)
			}
			if tc.k <= 1 && res.Counts != nil {
				t.Fatalf("%s/%s: skyline query returned counts", tc.name, alg)
			}
		}
	}
}

// TestEngineSkybandErrors exercises the validation surface of the new
// query field.
func TestEngineSkybandErrors(t *testing.T) {
	eng := skybench.NewEngine(2)
	defer eng.Close()
	ctx := context.Background()
	data := contextTestData(t, 50, 4)
	ds, err := skybench.NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := eng.Run(ctx, ds, skybench.Query{SkybandK: -1}); err == nil ||
		!strings.Contains(err.Error(), "negative SkybandK") {
		t.Fatalf("negative SkybandK: got %v", err)
	}
	for _, alg := range []skybench.Algorithm{skybench.PBSkyTree, skybench.BSkyTree, skybench.PSkyline} {
		_, err := eng.Run(ctx, ds, skybench.Query{Algorithm: alg, SkybandK: 2})
		if err == nil || !strings.Contains(err.Error(), "does not support k-skyband") {
			t.Fatalf("%s with SkybandK=2: got %v", alg, err)
		}
		// SkybandK=1 must be accepted everywhere and match the skyline.
		res, err := eng.Run(ctx, ds, skybench.Query{Algorithm: alg, SkybandK: 1})
		if err != nil {
			t.Fatalf("%s with SkybandK=1: %v", alg, err)
		}
		plain, err := eng.Run(ctx, ds, skybench.Query{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if !verify.SameSkyline(res.Indices, plain.Indices) {
			t.Fatalf("%s: SkybandK=1 diverges from plain skyline", alg)
		}
	}
}

// TestResultTopK pins the ranking helper: ascending dominator count,
// stable on ties, clamped to the band size, skyline passthrough.
func TestResultTopK(t *testing.T) {
	r := skybench.Result{
		Indices: []int{10, 11, 12, 13, 14},
		Counts:  []int32{2, 0, 1, 0, 2},
	}
	for _, tc := range []struct {
		w    int
		want []int
	}{
		{0, nil},
		{-3, nil},
		{1, []int{11}},
		{2, []int{11, 13}},
		{3, []int{11, 13, 12}},
		{5, []int{11, 13, 12, 10, 14}},
		{99, []int{11, 13, 12, 10, 14}},
	} {
		got := r.TopK(tc.w)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("TopK(%d) = %v, want %v", tc.w, got, tc.want)
		}
	}
	// Skyline result: no counts, the w smallest indices, caller-owned.
	sky := skybench.Result{Indices: []int{6, 4, 5}}
	got := sky.TopK(2)
	if fmt.Sprint(got) != fmt.Sprint([]int{4, 5}) {
		t.Fatalf("skyline TopK = %v", got)
	}
	got[0] = 99
	if sky.Indices[1] != 4 {
		t.Fatalf("TopK aliases Result.Indices")
	}
}

// TestTopKTiesByRowIndex: a top-w cut breaks count ties by ascending row
// index, so Hybrid and Q-Flow, which return the same band in different
// orders, give the same TopK. Each cut is held to the (count, index)
// ranking of the band.
func TestTopKTiesByRowIndex(t *testing.T) {
	ds, err := skybench.NewDataset(storeTestData(t, "independent", 5000, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	eng := skybench.NewEngine(2)
	defer eng.Close()
	var res [2]skybench.Result
	for i, algo := range []skybench.Algorithm{skybench.Hybrid, skybench.QFlow} {
		if res[i], err = eng.Run(context.Background(), ds, skybench.Query{Algorithm: algo, SkybandK: 3}); err != nil {
			t.Fatal(err)
		}
	}
	type ranked struct {
		idx int
		cnt int32
	}
	rank := make([]ranked, len(res[0].Indices))
	for p, i := range res[0].Indices {
		rank[p] = ranked{i, res[0].Counts[p]}
	}
	slices.SortFunc(rank, func(a, b ranked) int {
		if a.cnt != b.cnt {
			return int(a.cnt - b.cnt)
		}
		return a.idx - b.idx
	})
	for _, w := range []int{10, 50} {
		want := make([]int, w)
		for i := range want {
			want[i] = rank[i].idx
		}
		for i, r := range res {
			if got := r.TopK(w); !slices.Equal(got, want) {
				t.Fatalf("algorithm %d: TopK(%d) = %v, want %v", i, w, got, want)
			}
		}
	}
}

// TestEngineSkybandZeroAlloc guards the steady-state allocation behavior
// of the new counting path: a warm Engine serving repeated skyband
// queries with ReuseIndices performs no allocations per Run, exactly
// like the skyline path.
func TestEngineSkybandZeroAlloc(t *testing.T) {
	data := contextTestData(t, 20000, 8)
	ds, err := skybench.NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	eng := skybench.NewEngine(4)
	defer eng.Close()
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		q    skybench.Query
	}{
		{"hybrid-k4", skybench.Query{SkybandK: 4, ReuseIndices: true}},
		{"qflow-k4", skybench.Query{Algorithm: skybench.QFlow, SkybandK: 4, ReuseIndices: true}},
	} {
		if _, err := eng.Run(ctx, ds, tc.q); err != nil { // warm scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := eng.Run(ctx, ds, tc.q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Engine.Run allocates %.1f per call, want 0", tc.name, allocs)
		}
	}
}

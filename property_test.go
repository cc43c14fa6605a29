package skybench_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"skybench"

	"skybench/internal/dataset"
	"skybench/internal/point"
	"skybench/internal/verify"
)

// Property: all nine algorithms agree with the brute-force oracle and
// with each other on arbitrary small grid datasets (ties, duplicates,
// and dominance chains included).
func TestPropertyAllAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(90)
		d := 1 + rng.Intn(5)
		rows := make([][]float64, n)
		for i := range rows {
			row := make([]float64, d)
			for j := range row {
				row[j] = float64(rng.Intn(4))
			}
			rows[i] = row
		}
		want := verify.BruteForce(point.FromRows(rows))
		for _, alg := range skybench.Algorithms {
			res, err := runRows(rows, skybench.Query{
				Algorithm: alg,
				Threads:   1 + rng.Intn(4),
				Alpha:     1 + rng.Intn(64),
			})
			if err != nil {
				return false
			}
			if !verify.SameSkyline(res.Indices, want) {
				t.Logf("seed=%d alg=%v: got %d points, want %d", seed, alg, len(res.Indices), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the skyline is idempotent — computing the skyline of the
// skyline returns every point (all skyline points are mutually
// non-dominating by construction).
func TestPropertySkylineIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(120)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{float64(rng.Intn(6)), float64(rng.Intn(6)), float64(rng.Intn(6))}
		}
		first, err := runRows(rows, skybench.Query{})
		if err != nil {
			return false
		}
		sub := make([][]float64, len(first.Indices))
		for k, i := range first.Indices {
			sub[k] = rows[i]
		}
		second, err := runRows(sub, skybench.Query{})
		if err != nil {
			return false
		}
		return len(second.Indices) == len(sub)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the skyline is invariant under input permutation (as a set
// of point values).
func TestPropertyPermutationInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(80)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{float64(rng.Intn(5)), float64(rng.Intn(5))}
		}
		perm := rng.Perm(n)
		shuffled := make([][]float64, n)
		for i, p := range perm {
			shuffled[i] = rows[p]
		}
		a, err1 := runRows(rows, skybench.Query{})
		b, err2 := runRows(shuffled, skybench.Query{})
		if err1 != nil || err2 != nil {
			return false
		}
		return verify.SamePoints(point.FromRows(rows), a.Indices, point.FromRows(shuffled), b.Indices)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a dominated point never changes the skyline; adding
// a point that dominates everything replaces it entirely.
func TestPropertyMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{1 + float64(rng.Intn(5)), 1 + float64(rng.Intn(5))}
		}
		base, err := runRows(rows, skybench.Query{})
		if err != nil {
			return false
		}
		// Append a point worse than everything: skyline unchanged.
		worse := append(append([][]float64{}, rows...), []float64{100, 100})
		withWorse, err := runRows(worse, skybench.Query{})
		if err != nil || len(withWorse.Indices) != len(base.Indices) {
			return false
		}
		// Append a point better than everything: skyline collapses to it.
		better := append(append([][]float64{}, rows...), []float64{0, 0})
		withBetter, err := runRows(better, skybench.Query{})
		if err != nil || len(withBetter.Indices) != 1 || withBetter.Indices[0] != n {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: exactness through the preference view. The hot paths never
// stage a query's preferences — they read the Dataset through a view
// that applies them row by row — so for seeded random preference
// vectors (Min/Max/Ignore, d = 2…12, plus the shapes a column-picking
// view is likeliest to get wrong: all-Max, a single kept column, Ignore
// in the first or the last column) Hybrid and Q-Flow must return, set
// and dominator counts, what the brute-force oracle finds on an
// explicitly staged copy — for every thread count, for the skyline and
// a skyband, with the pre-filter (whose first pass is where the view is
// applied) and without it (where the L1 fan-out applies it). The data is
// the paper's three distributions plus a coarse grid, where negated
// zeros and ties are common.
func TestPropertyPrefsThroughView(t *testing.T) {
	eng := skybench.NewEngine(4)
	defer eng.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(19))
	all := []skybench.Pref{skybench.Min, skybench.Max, skybench.Ignore}

	for d := 2; d <= 12; d++ {
		random := make([]skybench.Pref, d)
		for j := range random {
			random[j] = all[rng.Intn(3)]
		}
		random[rng.Intn(d)] = skybench.Max // at least one kept column
		allMax := make([]skybench.Pref, d)
		oneKept := make([]skybench.Pref, d)
		firstIgnored := make([]skybench.Pref, d)
		lastIgnored := make([]skybench.Pref, d)
		for j := 0; j < d; j++ {
			allMax[j] = skybench.Max
			oneKept[j] = skybench.Ignore
			firstIgnored[j] = all[j%2]
			lastIgnored[j] = all[(j+1)%2]
		}
		oneKept[rng.Intn(d)] = all[rng.Intn(2)]
		firstIgnored[0] = skybench.Ignore
		lastIgnored[d-1] = skybench.Ignore

		for pi, prefs := range [][]skybench.Pref{random, allMax, oneKept, firstIgnored, lastIgnored} {
			for di := 0; di < 4; di++ {
				n := []int{1, 3, 64, 200 + rng.Intn(500)}[rng.Intn(4)]
				var m point.Matrix
				if di < 3 {
					m = dataset.Generate(dataset.AllDistributions[di], n, d, int64(100*d+pi))
				} else {
					m = point.NewMatrix(n, d)
					for i := range m.Flat() {
						m.Flat()[i] = float64(rng.Intn(4))
					}
				}
				ds, err := skybench.DatasetFromFlat(m.Flat(), n, d)
				if err != nil {
					t.Fatal(err)
				}
				staged := stagedMatrix(t, m, prefs)
				for _, k := range []int{1, 3} {
					wantIdx, wantCnt := verify.BruteForceSkyband(staged, k)
					if k == 1 {
						wantCnt = nil // skyline results carry no counts
					}
					for _, q := range []skybench.Query{
						{Algorithm: skybench.Hybrid},
						{Algorithm: skybench.Hybrid, Ablation: skybench.Ablation{NoPrefilter: true}},
						{Algorithm: skybench.QFlow},
					} {
						for _, threads := range []int{1, 2, 4} {
							q.Prefs, q.SkybandK, q.Threads = prefs, k, threads
							res, err := eng.Run(ctx, ds, q)
							if err != nil {
								t.Fatalf("d=%d prefs=%v dist=%d n=%d %s k=%d t=%d: %v", d, prefs, di, n, q.Algorithm, k, threads, err)
							}
							if !verify.SameBand(res.Indices, res.Counts, wantIdx, wantCnt) {
								t.Fatalf("d=%d prefs=%v dist=%d n=%d %s nopf=%v k=%d t=%d: %d points, oracle on the staged copy finds %d",
									d, prefs, di, n, q.Algorithm, q.Ablation.NoPrefilter, k, threads, len(res.Indices), len(wantIdx))
							}
						}
					}
				}
			}
		}
	}
}

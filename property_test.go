package skybench_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"skybench"

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

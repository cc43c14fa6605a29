package skybench_test

import (
	"context"
	"testing"

	"skybench"

	"skybench/internal/dataset"
	"skybench/internal/point"
	"skybench/internal/verify"
)

func genRows(dist dataset.Distribution, n, d int, seed int64) [][]float64 {
	m := dataset.Generate(dist, n, d, seed)
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		copy(row, m.Row(i))
		rows[i] = row
	}
	return rows
}

// testEngine is the one Engine the one-shot tests share; its budget of
// four threads covers every Query.Threads they ask for.
var testEngine = skybench.NewEngine(4)

// runRows answers q over rows on testEngine.
func runRows(rows [][]float64, q skybench.Query) (skybench.Result, error) {
	ds, err := skybench.NewDataset(rows)
	if err != nil {
		return skybench.Result{}, err
	}
	return testEngine.Run(context.Background(), ds, q)
}

func contextTestData(t testing.TB, n, d int) [][]float64 {
	t.Helper()
	return genRows(dataset.Independent, n, d, 42)
}

func sameIndexSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]bool, len(a))
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		if !seen[v] {
			return false
		}
	}
	return true
}

// Every algorithm exposed by the public API must agree with the oracle
// on every distribution — the central cross-algorithm equivalence test.
func TestAllAlgorithmsMatchOracle(t *testing.T) {
	for _, dist := range dataset.AllDistributions {
		rows := genRows(dist, 600, 5, 99)
		want := verify.BruteForce(point.FromRows(rows))
		for _, alg := range skybench.Algorithms {
			res, err := runRows(rows, skybench.Query{Algorithm: alg, Threads: 3})
			if err != nil {
				t.Fatalf("%v on %v: %v", alg, dist, err)
			}
			if !verify.SameSkyline(res.Indices, want) {
				t.Fatalf("%v on %v: wrong skyline (got %d points, want %d)",
					alg, dist, len(res.Indices), len(want))
			}
		}
	}
}

func TestComputeValidation(t *testing.T) {
	if _, err := runRows([][]float64{{1, 2}, {3}}, skybench.Query{}); err == nil {
		t.Error("ragged input accepted")
	}
	if _, err := runRows([][]float64{{}}, skybench.Query{}); err == nil {
		t.Error("zero-dimensional input accepted")
	}
	wide := make([]float64, 40)
	if _, err := runRows([][]float64{wide}, skybench.Query{}); err == nil {
		t.Error("over-wide input accepted")
	}
	if _, err := runRows([][]float64{{1}}, skybench.Query{Algorithm: skybench.Algorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestStatsExposed(t *testing.T) {
	rows := genRows(dataset.Independent, 3000, 6, 5)
	res, err := runRows(rows, skybench.Query{Algorithm: skybench.Hybrid, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.InputSize != 3000 || s.SkylineSize != len(res.Indices) {
		t.Errorf("sizes: %+v", s)
	}
	if s.DominanceTests == 0 {
		t.Error("no DTs reported")
	}
	if s.Elapsed <= 0 {
		t.Error("no elapsed time")
	}
	if s.Timings.PhaseOne <= 0 {
		t.Error("no Phase I time for Hybrid")
	}
}

func TestAlgorithmNamesRoundTrip(t *testing.T) {
	for _, alg := range skybench.Algorithms {
		got, err := skybench.ParseAlgorithm(alg.String())
		if err != nil || got != alg {
			t.Errorf("round trip %v: %v, %v", alg, got, err)
		}
	}
	if _, err := skybench.ParseAlgorithm("nope"); err == nil {
		t.Error("bogus name accepted")
	}
}

func TestPivotStrategies(t *testing.T) {
	rows := genRows(dataset.Anticorrelated, 500, 4, 7)
	want := verify.BruteForce(point.FromRows(rows))
	for _, p := range []skybench.PivotStrategy{
		skybench.PivotMedian, skybench.PivotBalanced, skybench.PivotManhattan,
		skybench.PivotVolume, skybench.PivotRandom,
	} {
		res, err := runRows(rows, skybench.Query{Pivot: p, Seed: 11})
		if err != nil || !verify.SameSkyline(res.Indices, want) {
			t.Errorf("pivot %v: wrong result (%v)", p, err)
		}
	}
}

func TestProgressiveViaAPI(t *testing.T) {
	rows := genRows(dataset.Independent, 2000, 5, 3)
	var streamed []int
	res, err := runRows(rows, skybench.Query{
		Algorithm: skybench.QFlow,
		Alpha:     128,
		Progressive: func(confirmed []int) {
			streamed = append(streamed, confirmed...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !verify.SameSkyline(streamed, res.Indices) {
		t.Fatal("progressive stream disagrees with final result")
	}
}

func TestMaximizationViaNegation(t *testing.T) {
	// The documented idiom: negate attributes to prefer larger values.
	rows := [][]float64{{-10, -1}, {-1, -10}, {-5, -5}, {-1, -1}}
	res, err := runRows(rows, skybench.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !verify.SameSkyline(res.Indices, []int{0, 1, 2}) {
		t.Fatalf("maximization: %v", res.Indices)
	}
}

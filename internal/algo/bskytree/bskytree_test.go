package bskytree

import (
	"testing"

	"skybench/internal/dataset"
	"skybench/internal/par"
	"skybench/internal/point"
	"skybench/internal/stats"
	"skybench/internal/verify"
)

func TestSequentialMatchesOracle(t *testing.T) {
	seq := lease(t, 1)
	for _, dist := range dataset.AllDistributions {
		for _, n := range []int{1, 2, 63, 64, 65, 500} {
			for _, d := range []int{1, 2, 4, 8} {
				m := dataset.Generate(dist, n, d, int64(n*31+d))
				if !verify.SameSkyline(indices(SkylineDT(m, seq, nil, nil)), verify.BruteForce(m)) {
					t.Fatalf("%v n=%d d=%d: wrong skyline", dist, n, d)
				}
			}
		}
	}
}

func TestParallelMatchesOracle(t *testing.T) {
	for _, dist := range dataset.AllDistributions {
		for _, threads := range []int{1, 2, 4} {
			m := dataset.Generate(dist, 700, 5, 77)
			if !verify.SameSkyline(indices(SkylineDT(m, lease(t, threads), nil, nil)), verify.BruteForce(m)) {
				t.Fatalf("%v t=%d: wrong skyline", dist, threads)
			}
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		m := dataset.Generate(dataset.Anticorrelated, 900, 6, seed)
		seq := indices(SkylineDT(m, lease(t, 1), nil, nil))
		parl := indices(SkylineDT(m, lease(t, 3), nil, nil))
		if !verify.SameSkyline(seq, parl) {
			t.Fatalf("seed %d: parallel and sequential disagree", seed)
		}
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if got := indices(SkylineDT(point.Matrix{}, lease(t, 1), nil, nil)); got != nil {
		t.Fatalf("empty: %v", got)
	}
	if got := indices(SkylineDT(point.FromRows([][]float64{{1, 2}}), lease(t, 1), nil, nil)); len(got) != 1 {
		t.Fatalf("single: %v", got)
	}
}

func TestDuplicatePivots(t *testing.T) {
	// Many copies of the same minimal point: all must be in the skyline
	// even though they are coincident with the pivot (full mask).
	rows := [][]float64{{5, 5}, {9, 9}}
	for i := 0; i < 10; i++ {
		rows = append(rows, []float64{1, 1})
	}
	m := point.FromRows(rows)
	got := indices(SkylineDT(m, lease(t, 1), nil, nil))
	if len(got) != 11 { // ten coincident minima + {5,5}? {5,5} dominated by {1,1}
		// {5,5} and {9,9} are dominated; only 10 minima survive.
		if len(got) != 10 {
			t.Fatalf("duplicates around pivot: got %d points %v", len(got), got)
		}
	}
	if !verify.SameSkyline(got, verify.BruteForce(m)) {
		t.Fatalf("wrong skyline with coincident pivot copies: %v", got)
	}
}

func TestQuantizedHeavyDuplicates(t *testing.T) {
	m := dataset.Generate(dataset.Independent, 800, 5, 21)
	dataset.Quantize(m, 4)
	if !verify.SameSkyline(indices(SkylineDT(m, lease(t, 1), nil, nil)), verify.BruteForce(m)) {
		t.Fatal("wrong skyline on heavily quantized data")
	}
	if !verify.SameSkyline(indices(SkylineDT(m, lease(t, 4), nil, nil)), verify.BruteForce(m)) {
		t.Fatal("parallel wrong on heavily quantized data")
	}
}

func TestDTCounting(t *testing.T) {
	m := dataset.Generate(dataset.Independent, 400, 4, 2)
	c := stats.NewDTCounters(2)
	_, dts := SkylineDT(m, lease(t, 2), c, nil)
	if dts == 0 || c.Sum() != dts {
		t.Errorf("DT accounting: returned %d, counter %d", dts, c.Sum())
	}
}

// BSkyTree's whole point: it should need far fewer DTs than quadratic on
// anticorrelated data where region-wise incomparability abounds.
func TestRegionSkippingReducesDTs(t *testing.T) {
	m := dataset.Generate(dataset.Anticorrelated, 2000, 8, 5)
	_, dts := SkylineDT(m, lease(t, 1), nil, nil)
	n := uint64(m.N())
	if dts > n*n/4 {
		t.Errorf("BSkyTree did %d DTs; expected ≪ n²=%d from region skipping", dts, n*n)
	}
}

// indices keeps the row indices of a SkylineDT answer.
func indices(idx []int, _ uint64) []int { return idx }

// lease returns a team of threads workers from a pool of that size made
// for the test, released and closed when the test ends.
func lease(t *testing.T, threads int) *par.Team {
	t.Helper()
	pool := par.NewPool(threads)
	team := pool.Lease(threads)
	t.Cleanup(func() {
		team.Release()
		pool.Close()
	})
	return team
}

package pskyline

import (
	"testing"

	"skybench/internal/dataset"
	"skybench/internal/par"
	"skybench/internal/point"
	"skybench/internal/stats"
	"skybench/internal/verify"
)

func TestMatchesOracle(t *testing.T) {
	for _, dist := range dataset.AllDistributions {
		for _, threads := range []int{1, 2, 3, 8} {
			team := lease(t, threads)
			for _, n := range []int{1, 2, 10, 500} {
				m := dataset.Generate(dist, n, 5, int64(n+threads))
				if !verify.SameSkyline(SkylineStats(m, team, nil, nil), verify.BruteForce(m)) {
					t.Fatalf("%v t=%d n=%d: wrong skyline", dist, threads, n)
				}
			}
		}
	}
}

func TestEmpty(t *testing.T) {
	if got := SkylineStats(point.Matrix{}, lease(t, 4), nil, nil); got != nil {
		t.Fatalf("empty: %v", got)
	}
}

func TestMoreThreadsThanPoints(t *testing.T) {
	m := point.FromRows([][]float64{{1, 2}, {2, 1}})
	if got := SkylineStats(m, lease(t, 16), nil, nil); len(got) != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestDuplicatesAcrossBlocks(t *testing.T) {
	// Coincident minima land in different thread blocks; the merge must
	// keep both.
	rows := make([][]float64, 100)
	for i := range rows {
		rows[i] = []float64{float64(5 + i%7), float64(5 + (i*3)%7)}
	}
	rows[3] = []float64{0, 0}
	rows[97] = []float64{0, 0}
	m := point.FromRows(rows)
	got := SkylineStats(m, lease(t, 4), nil, nil)
	if !verify.SameSkyline(got, verify.BruteForce(m)) {
		t.Fatalf("duplicates across blocks: %v", got)
	}
}

func TestStatsRecorded(t *testing.T) {
	m := dataset.Generate(dataset.Independent, 1000, 6, 9)
	var st stats.Stats
	got := SkylineStats(m, lease(t, 4), &st, nil)
	if st.SkylineSize != len(got) || st.InputSize != 1000 || st.Threads != 4 {
		t.Errorf("sizes: %+v", st)
	}
	if st.DominanceTests == 0 {
		t.Error("no DTs recorded")
	}
	if st.Phases[stats.PhaseOne] == 0 && st.Phases[stats.PhaseTwo] == 0 {
		t.Error("no phase time recorded")
	}
}

func TestThreadCountInvariance(t *testing.T) {
	m := dataset.Generate(dataset.Anticorrelated, 800, 6, 4)
	want := SkylineStats(m, lease(t, 1), nil, nil)
	for _, threads := range []int{2, 5, 7} {
		if !verify.SameSkyline(SkylineStats(m, lease(t, threads), nil, nil), want) {
			t.Fatalf("t=%d disagrees with t=1", threads)
		}
	}
}

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

package skybench_test

import (
	"context"
	"sort"
	"testing"

	"skybench"
)

// TestParsePivotRoundTrip checks ParsePivot against every strategy's
// String form (the satellite task: pivot strategies used to be
// unparseable).
func TestParsePivotRoundTrip(t *testing.T) {
	strategies := []skybench.PivotStrategy{
		skybench.PivotMedian, skybench.PivotBalanced, skybench.PivotManhattan,
		skybench.PivotVolume, skybench.PivotRandom,
	}
	for _, p := range strategies {
		got, err := skybench.ParsePivot(p.String())
		if err != nil {
			t.Errorf("ParsePivot(%q): %v", p.String(), err)
			continue
		}
		if got != p {
			t.Errorf("ParsePivot(%q) = %v, want %v", p.String(), got, p)
		}
	}
	if _, err := skybench.ParsePivot("bogus"); err == nil {
		t.Error("ParsePivot accepted an unknown name")
	}
}

// TestAlgorithmNamesSorted checks that AlgorithmNames is sorted,
// complete, and round-trips through ParseAlgorithm.
func TestAlgorithmNamesSorted(t *testing.T) {
	names := skybench.AlgorithmNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("AlgorithmNames not sorted: %v", names)
	}
	// AlgorithmNames carries one extra entry beyond Algorithms: the
	// "auto" meta-algorithm, which is parseable and servable through a
	// Store but is not a comparison point the benchmarks iterate.
	if len(names) != len(skybench.Algorithms)+1 {
		t.Errorf("AlgorithmNames lists %d algorithms, Algorithms has %d (+auto)", len(names), len(skybench.Algorithms))
	}
	found := false
	for _, name := range names {
		if name == skybench.Auto.String() {
			found = true
		}
	}
	if !found {
		t.Errorf("AlgorithmNames %v is missing %q", names, skybench.Auto)
	}
	for _, name := range names {
		a, err := skybench.ParseAlgorithm(name)
		if err != nil {
			t.Errorf("ParseAlgorithm(%q): %v", name, err)
			continue
		}
		if a.String() != name {
			t.Errorf("ParseAlgorithm(%q).String() = %q", name, a.String())
		}
	}
}

// TestResultClone checks that Clone detaches a result from any shared
// storage.
func TestResultClone(t *testing.T) {
	r := skybench.Result{Indices: []int{3, 1, 4}}
	c := r.Clone()
	r.Indices[0] = 99
	if c.Indices[0] != 3 {
		t.Errorf("Clone shares storage: got %v", c.Indices)
	}
	empty := skybench.Result{}.Clone()
	if len(empty.Indices) != 0 {
		t.Errorf("Clone of empty result: %v", empty.Indices)
	}
}

// skylineStaircase builds a dataset whose skyline is every point: x
// increases while y decreases, so the points are mutually incomparable.
func skylineStaircase(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = []float64{float64(i), float64(n-i) + 0.5*float64(i)}
	}
	return rows
}

// singleWinner builds a dataset whose skyline is exactly {w}: every
// other point is a copy of a dominated value. w is picked to differ from
// firstConfirmed so overwriting is observable.
func singleWinner(n, firstConfirmed int) ([][]float64, int) {
	w := 0
	if firstConfirmed == 0 {
		w = 1
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{10, 10}
	}
	rows[w] = []float64{0, 0}
	return rows, w
}

// TestEngineReuseIndicesAliasing is the regression test for the
// documented aliasing rule: with Query.ReuseIndices a second Engine.Run
// invalidates the first result's Indices (they alias reused storage) and
// Clone detaches them; without it Engine.Run hands out caller-owned
// indices that later queries cannot touch.
func TestEngineReuseIndicesAliasing(t *testing.T) {
	allSky := skylineStaircase(6)
	dsAll, err := skybench.NewDataset(allSky)
	if err != nil {
		t.Fatal(err)
	}
	eng := skybench.NewEngine(1)
	defer eng.Close()
	bg := context.Background()
	// runOne answers q over a dataset whose single skyline point differs
	// from overwrite, the index in the slot it will land on.
	runOne := func(overwrite int, q skybench.Query) {
		t.Helper()
		oneSky, _ := singleWinner(4, overwrite)
		dsOne, err := skybench.NewDataset(oneSky)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(bg, dsOne, q); err != nil {
			t.Fatal(err)
		}
	}

	reuse := skybench.Query{ReuseIndices: true}
	first, err := eng.Run(bg, dsAll, reuse)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Indices) != len(allSky) {
		t.Fatalf("staircase skyline has %d points, want %d", len(first.Indices), len(allSky))
	}
	wantFirst := append([]int(nil), first.Indices...)
	saved := first.Clone()
	runOne(wantFirst[0], reuse)
	// The aliasing rule: first.Indices now reflects the second query's
	// scratch — its first entry has been overwritten with the second
	// skyline's sole index, proving invalidation.
	if first.Indices[0] == wantFirst[0] {
		t.Errorf("second Run did not invalidate the first ReuseIndices result — "+
			"either the aliasing contract changed (update the docs!), the zero-copy "+
			"path is copying, or this test is stale: got %v", first.Indices[0])
	}
	for i := range wantFirst {
		if saved.Indices[i] != wantFirst[i] {
			t.Fatalf("Clone was corrupted by the second call: %v != %v", saved.Indices, wantFirst)
		}
	}

	// Without ReuseIndices: caller-owned, later queries must not touch it.
	got, err := eng.Run(bg, dsAll, skybench.Query{})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), got.Indices...)
	runOne(want[0], skybench.Query{})
	for i := range want {
		if got.Indices[i] != want[i] {
			t.Fatalf("Engine.Run result without ReuseIndices was invalidated by a later query at %d: %v != %v",
				i, got.Indices, want)
		}
	}
}

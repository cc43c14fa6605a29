package stream

import (
	"slices"
	"testing"

	"skybench"
)

// TestSkybandIndexEdgeCases is the table-driven edge sweep of the
// streaming band surface: degenerate inputs and band parameters at the
// boundaries of the maintenance rules.
func TestSkybandIndexEdgeCases(t *testing.T) {
	type step struct {
		row  []float64 // insert when non-nil
		del  int       // 1-based insertion order to delete when > 0
		want []int     // expected band as 1-based insertion orders, sorted
	}
	cases := []struct {
		name  string
		d, k  int
		steps []step
	}{
		{
			name: "empty-then-single", d: 3, k: 2,
			steps: []step{
				{row: []float64{1, 2, 3}, want: []int{1}},
				{del: 1, want: nil},
			},
		},
		{
			name: "all-identical", d: 2, k: 2,
			steps: []step{
				{row: []float64{5, 5}, want: []int{1}},
				{row: []float64{5, 5}, want: []int{1, 2}},
				{row: []float64{5, 5}, want: []int{1, 2, 3}},
				{del: 2, want: []int{1, 3}},
			},
		},
		{
			// Duplicates on the band boundary: both copies of the
			// dominated pair share the count and move in lockstep.
			name: "dup-boundary", d: 2, k: 2,
			steps: []step{
				{row: []float64{1, 1}, want: []int{1}},
				{row: []float64{2, 2}, want: []int{1, 2}},
				{row: []float64{2, 2}, want: []int{1, 2, 3}},
				{row: []float64{0, 0}, want: []int{1, 4}}, // 2,3 now have 2 dominators
				{del: 1, want: []int{2, 3, 4}},            // both duplicates promote together
			},
		},
		{
			name: "d1-chain", d: 1, k: 2,
			steps: []step{
				{row: []float64{3}, want: []int{1}},
				{row: []float64{2}, want: []int{1, 2}},
				{row: []float64{1}, want: []int{2, 3}}, // {3} has 2 dominators
				{del: 3, want: []int{1, 2}},            // {3} promoted back
			},
		},
		{
			name: "k-geq-n", d: 2, k: 100,
			steps: []step{
				{row: []float64{1, 1}, want: []int{1}},
				{row: []float64{2, 2}, want: []int{1, 2}},
				{row: []float64{3, 3}, want: []int{1, 2, 3}},
				{del: 1, want: []int{2, 3}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := New(tc.d, Config{SkybandK: tc.k})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			var ids []ID
			for si, st := range tc.steps {
				if st.row != nil {
					id, err := ix.Insert(st.row)
					if err != nil {
						t.Fatalf("step %d: %v", si, err)
					}
					ids = append(ids, id)
				} else {
					if !ix.Delete(ids[st.del-1]) {
						t.Fatalf("step %d: delete of live point failed", si)
					}
				}
				snap := ix.Snapshot()
				got := make([]int, snap.Len())
				for i := 0; i < snap.Len(); i++ {
					got[i] = int(snap.ID(i)) // IDs are 1-based insertion order
					if c := snap.Count(i); c >= tc.k {
						t.Fatalf("step %d: band member %d with count %d >= k=%d", si, snap.ID(i), c, tc.k)
					}
				}
				slices.Sort(got)
				if !slices.Equal(got, st.want) {
					t.Fatalf("step %d: band %v, want %v", si, got, st.want)
				}
			}
		})
	}
}

// TestSkybandConfigValidation pins the Config.SkybandK error surface
// and the BandK accessor.
func TestSkybandConfigValidation(t *testing.T) {
	if _, err := New(3, Config{SkybandK: -2}); err == nil {
		t.Fatalf("negative SkybandK accepted")
	}
	for _, k := range []int{0, 1} {
		ix, err := New(3, Config{SkybandK: k})
		if err != nil {
			t.Fatal(err)
		}
		if ix.k != 1 {
			t.Fatalf("SkybandK=%d: BandK()=%d, want 1", k, ix.k)
		}
		ix.Close()
	}
	ix, err := New(2, Config{SkybandK: 3, Prefs: []skybench.Pref{skybench.Max, skybench.Min}})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.k != 3 {
		t.Fatalf("BandK()=%d, want 3", ix.k)
	}
	// Under (Max, Min): {9,0} dominates both others; {9,1} additionally
	// dominates {8,2} (higher on the maximized dim, lower on the
	// minimized one). Counts: {8,2}→2, {9,1}→1, {9,0}→0 — all < k=3.
	a, _ := ix.Insert([]float64{8, 2})
	b, _ := ix.Insert([]float64{9, 1})
	dom, _ := ix.Insert([]float64{9, 0})
	for _, id := range []ID{a, b, dom} {
		if !inSkyline(ix, id) {
			t.Fatalf("id %d should be in the band at k=3", id)
		}
	}
	snap := ix.Snapshot()
	for i := 0; i < snap.Len(); i++ {
		var want int
		switch snap.ID(i) {
		case a:
			want = 2
		case b:
			want = 1
		}
		if got := snap.Count(i); got != want {
			t.Fatalf("id %d count %d, want %d", snap.ID(i), got, want)
		}
	}
}

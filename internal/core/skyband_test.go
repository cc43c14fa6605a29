package core

import (
	"fmt"
	"testing"

	"skybench/internal/dataset"
	"skybench/internal/pivot"
	"skybench/internal/point"
	"skybench/internal/verify"
)

// checkBand asserts that (idx, counts) is exactly the k-skyband of m
// with exact dominator counts.
func checkBand(t *testing.T, m point.Matrix, k int, idx []int, counts []int32, label string) {
	t.Helper()
	wantIdx, wantCnt := verify.BruteForceSkyband(m, k)
	if !verify.SameBand(idx, counts, wantIdx, wantCnt) {
		t.Fatalf("%s: k=%d band mismatch: got %d points %v (counts %v), want %d points %v (counts %v)",
			label, k, len(idx), idx, counts, len(wantIdx), wantIdx, wantCnt)
	}
}

func TestHybridSkybandMatchesOracle(t *testing.T) {
	c := NewContext()
	teams := leaseSizes(t, 4)
	for _, dist := range dataset.AllDistributions {
		for _, d := range []int{2, 4, 7, 8} {
			for _, n := range []int{1, 17, 400, 1500} {
				m := dataset.Generate(dist, n, d, 99)
				for _, k := range []int{1, 2, 3, 4, 8, n, n + 5} {
					for _, threads := range []int{1, 4} {
						idx := c.Hybrid(m.View(), HybridOptions{Team: teams[threads], Alpha: 64, SkybandK: k})
						counts := c.Counts()
						if k <= 1 {
							if counts != nil {
								t.Fatalf("skyline run returned counts")
							}
							continue // skyline equivalence covered elsewhere
						}
						if len(counts) != len(idx) {
							t.Fatalf("counts length %d != indices length %d", len(counts), len(idx))
						}
						label := fmt.Sprintf("hybrid %s n=%d d=%d t=%d", dist, n, d, threads)
						checkBand(t, m, k, idx, counts, label)
					}
				}
			}
		}
	}
}

func TestQFlowSkybandMatchesOracle(t *testing.T) {
	c := NewContext()
	teams := leaseSizes(t, 4)
	for _, dist := range dataset.AllDistributions {
		for _, d := range []int{2, 5, 8} {
			for _, n := range []int{1, 17, 400, 1500} {
				m := dataset.Generate(dist, n, d, 7)
				for _, k := range []int{2, 3, 5, n + 1} {
					for _, threads := range []int{1, 4} {
						idx := c.QFlow(m.View(), QFlowOptions{Team: teams[threads], Alpha: 128, SkybandK: k})
						counts := c.Counts()
						if len(counts) != len(idx) {
							t.Fatalf("counts length %d != indices length %d", len(counts), len(idx))
						}
						label := fmt.Sprintf("qflow %s n=%d d=%d t=%d", dist, n, d, threads)
						checkBand(t, m, k, idx, counts, label)
					}
				}
			}
		}
	}
}

// TestHybridSkybandAblations drives every ablation through the counting
// path: each combination must still produce the exact k-skyband.
func TestHybridSkybandAblations(t *testing.T) {
	c := NewContext()
	tm := lease(t, 2)
	m := dataset.Generate(dataset.Anticorrelated, 600, 6, 3)
	for _, abl := range []HybridOptions{
		{NoPrefilter: true},
		{NoMS: true},
		{NoLevel2: true},
		{NoPhase2Split: true},
		{NoPrefilter: true, NoMS: true, NoPhase2Split: true},
		{Pivot: pivot.Manhattan},
	} {
		abl.Team = tm
		abl.Alpha = 96
		abl.SkybandK = 3
		idx := c.Hybrid(m.View(), abl)
		checkBand(t, m, 3, idx, c.Counts(), fmt.Sprintf("ablation %+v", abl))
	}
}

// TestSkybandK1BitIdentical locks the promise that SkybandK ≤ 1 runs the
// untouched skyline path: same indices in the same order as a plain run.
func TestSkybandK1BitIdentical(t *testing.T) {
	a, b := NewContext(), NewContext()
	tm := lease(t, 2)
	for _, dist := range dataset.AllDistributions {
		m := dataset.Generate(dist, 3000, 8, 21)
		plainH := append([]int(nil), a.Hybrid(m.View(), HybridOptions{Team: tm})...)
		bandH := b.Hybrid(m.View(), HybridOptions{Team: tm, SkybandK: 1})
		if len(plainH) != len(bandH) {
			t.Fatalf("%s hybrid: k=1 size %d != plain %d", dist, len(bandH), len(plainH))
		}
		for i := range plainH {
			if plainH[i] != bandH[i] {
				t.Fatalf("%s hybrid: k=1 order diverges at %d", dist, i)
			}
		}
		plainQ := append([]int(nil), a.QFlow(m.View(), QFlowOptions{Team: tm})...)
		bandQ := b.QFlow(m.View(), QFlowOptions{Team: tm, SkybandK: 0})
		if len(plainQ) != len(bandQ) {
			t.Fatalf("%s qflow: k=0 size %d != plain %d", dist, len(bandQ), len(plainQ))
		}
		for i := range plainQ {
			if plainQ[i] != bandQ[i] {
				t.Fatalf("%s qflow: k=0 order diverges at %d", dist, i)
			}
		}
	}
}

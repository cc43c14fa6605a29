package core

import (
	"fmt"
	"testing"

	"skybench/internal/dataset"
	"skybench/internal/pivot"
	"skybench/internal/point"
	"skybench/internal/stats"
	"skybench/internal/verify"
)

func TestQFlowMatchesOracle(t *testing.T) {
	teams := leaseSizes(t, 4)
	for _, dist := range dataset.AllDistributions {
		for _, threads := range []int{1, 2, 4} {
			for _, n := range []int{1, 2, 100, 700} {
				m := dataset.Generate(dist, n, 5, int64(n+threads))
				got := QFlow(m, QFlowOptions{Team: teams[threads], Alpha: 64})
				if !verify.SameSkyline(got, verify.BruteForce(m)) {
					t.Fatalf("QFlow %v t=%d n=%d: wrong skyline", dist, threads, n)
				}
			}
		}
	}
}

func TestHybridMatchesOracle(t *testing.T) {
	teams := leaseSizes(t, 4)
	for _, dist := range dataset.AllDistributions {
		for _, threads := range []int{1, 2, 4} {
			for _, n := range []int{1, 2, 100, 700} {
				m := dataset.Generate(dist, n, 5, int64(2*n+threads))
				got := Hybrid(m, HybridOptions{Team: teams[threads], Alpha: 64})
				if !verify.SameSkyline(got, verify.BruteForce(m)) {
					t.Fatalf("Hybrid %v t=%d n=%d: wrong skyline", dist, threads, n)
				}
			}
		}
	}
}

func TestHybridAlphaSweep(t *testing.T) {
	m := dataset.Generate(dataset.Anticorrelated, 1500, 6, 3)
	want := verify.BruteForce(m)
	for _, alpha := range []int{1, 2, 7, 64, 1024, 4096} {
		got := Hybrid(m, HybridOptions{Team: lease(t, 2), Alpha: alpha})
		if !verify.SameSkyline(got, want) {
			t.Fatalf("alpha=%d: wrong skyline", alpha)
		}
	}
}

func TestQFlowAlphaSweep(t *testing.T) {
	m := dataset.Generate(dataset.Independent, 1500, 6, 4)
	want := verify.BruteForce(m)
	for _, alpha := range []int{1, 3, 128, 1 << 13} {
		got := QFlow(m, QFlowOptions{Team: lease(t, 3), Alpha: alpha})
		if !verify.SameSkyline(got, want) {
			t.Fatalf("alpha=%d: wrong skyline", alpha)
		}
	}
}

func TestHybridAllPivotStrategies(t *testing.T) {
	m := dataset.Generate(dataset.Independent, 1000, 5, 8)
	want := verify.BruteForce(m)
	for _, s := range pivot.AllStrategies {
		got := Hybrid(m, HybridOptions{Team: lease(t, 2), Pivot: s, Seed: 42})
		if !verify.SameSkyline(got, want) {
			t.Fatalf("pivot=%v: wrong skyline", s)
		}
	}
}

func TestHybridAblations(t *testing.T) {
	m := dataset.Generate(dataset.Anticorrelated, 1200, 6, 5)
	want := verify.BruteForce(m)
	cases := []HybridOptions{
		{NoPrefilter: true},
		{NoMS: true},
		{NoLevel2: true},
		{NoPhase2Split: true},
		{NoPrefilter: true, NoMS: true, NoLevel2: true, NoPhase2Split: true},
	}
	tm := lease(t, 2)
	for i, opt := range cases {
		opt.Team = tm
		opt.Alpha = 128
		if !verify.SameSkyline(Hybrid(m, opt), want) {
			t.Fatalf("ablation case %d (%+v): wrong skyline", i, opt)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	if got := QFlow(point.Matrix{}, QFlowOptions{}); got != nil {
		t.Errorf("QFlow empty: %v", got)
	}
	if got := Hybrid(point.Matrix{}, HybridOptions{}); got != nil {
		t.Errorf("Hybrid empty: %v", got)
	}
}

func TestDuplicateHeavyInputs(t *testing.T) {
	m := dataset.Generate(dataset.Independent, 900, 4, 6)
	dataset.Quantize(m, 4)
	want := verify.BruteForce(m)
	tm := lease(t, 2)
	if !verify.SameSkyline(QFlow(m, QFlowOptions{Team: tm, Alpha: 64}), want) {
		t.Fatal("QFlow wrong on quantized data")
	}
	if !verify.SameSkyline(Hybrid(m, HybridOptions{Team: tm, Alpha: 64}), want) {
		t.Fatal("Hybrid wrong on quantized data")
	}
}

func TestAllCoincidentPoints(t *testing.T) {
	rows := make([][]float64, 50)
	for i := range rows {
		rows[i] = []float64{3, 1, 4}
	}
	m := point.FromRows(rows)
	tm := lease(t, 2)
	if got := Hybrid(m, HybridOptions{Team: tm, Alpha: 8}); len(got) != 50 {
		t.Fatalf("coincident input: kept %d of 50", len(got))
	}
	if got := QFlow(m, QFlowOptions{Team: tm, Alpha: 8}); len(got) != 50 {
		t.Fatalf("QFlow coincident input: kept %d of 50", len(got))
	}
}

func TestStatsPopulated(t *testing.T) {
	m := dataset.Generate(dataset.Independent, 2000, 6, 7)
	var qs, hs stats.Stats
	tm := lease(t, 2)
	QFlow(m, QFlowOptions{Team: tm, Stats: &qs})
	Hybrid(m, HybridOptions{Team: tm, Stats: &hs})
	if qs.DominanceTests == 0 || hs.DominanceTests == 0 {
		t.Error("DTs not recorded")
	}
	if qs.SkylineSize != hs.SkylineSize {
		t.Errorf("skyline sizes disagree: qflow=%d hybrid=%d", qs.SkylineSize, hs.SkylineSize)
	}
	if qs.Phases[stats.PhaseOne] == 0 {
		t.Error("QFlow Phase I time missing")
	}
	if hs.Phases[stats.PhasePivot] == 0 {
		t.Error("Hybrid pivot time missing")
	}
}

// Hybrid's raison d'être: M(S) + partitioning must cut dominance tests
// versus plain Q-Flow on hard (anticorrelated) workloads.
func TestHybridDoesFewerDTsThanQFlow(t *testing.T) {
	m := dataset.Generate(dataset.Anticorrelated, 4000, 8, 11)
	var qs, hs stats.Stats
	tm := lease(t, 1)
	QFlow(m, QFlowOptions{Team: tm, Stats: &qs})
	Hybrid(m, HybridOptions{Team: tm, Stats: &hs})
	if hs.DominanceTests >= qs.DominanceTests {
		t.Errorf("Hybrid DTs (%d) not below Q-Flow DTs (%d)", hs.DominanceTests, qs.DominanceTests)
	}
}

// The ablations should cost DTs: removing M(S) or level-2 partitioning
// must not *reduce* dominance tests.
func TestAblationsIncreaseDTs(t *testing.T) {
	m := dataset.Generate(dataset.Anticorrelated, 3000, 8, 13)
	tm := lease(t, 1)
	run := func(opt HybridOptions) uint64 {
		var st stats.Stats
		opt.Team = tm
		opt.Stats = &st
		Hybrid(m, opt)
		return st.DominanceTests
	}
	full := run(HybridOptions{})
	noMS := run(HybridOptions{NoMS: true})
	noL2 := run(HybridOptions{NoLevel2: true})
	if noMS < full {
		t.Errorf("NoMS did fewer DTs (%d) than full Hybrid (%d)", noMS, full)
	}
	if noL2 < full {
		t.Errorf("NoLevel2 did fewer DTs (%d) than full Hybrid (%d)", noL2, full)
	}
}

func TestProgressiveReporting(t *testing.T) {
	m := dataset.Generate(dataset.Independent, 2000, 5, 9)
	var batches [][]int
	got := Hybrid(m, HybridOptions{
		Team:  lease(t, 2),
		Alpha: 128,
		Progressive: func(confirmed []int) {
			cp := append([]int(nil), confirmed...)
			batches = append(batches, cp)
		},
	})
	var flat []int
	for _, b := range batches {
		flat = append(flat, b...)
	}
	if !verify.SameSkyline(flat, got) {
		t.Fatal("progressive batches do not reassemble the final skyline")
	}
	if len(batches) < 2 {
		t.Errorf("expected multiple progressive batches, got %d", len(batches))
	}
}

func TestQFlowProgressiveOrderIsL1Sorted(t *testing.T) {
	m := dataset.Generate(dataset.Anticorrelated, 1000, 4, 14)
	got := QFlow(m, QFlowOptions{Team: lease(t, 2), Alpha: 64})
	last := -1.0
	for _, i := range got {
		l1 := point.L1(m.Row(i))
		if l1 < last {
			t.Fatal("QFlow output not in L1 order")
		}
		last = l1
	}
}

func TestHybridThreadInvariance(t *testing.T) {
	m := dataset.Generate(dataset.Anticorrelated, 2500, 7, 15)
	want := Hybrid(m, HybridOptions{Team: lease(t, 1)})
	for _, threads := range []int{2, 3, 8} {
		got := Hybrid(m, HybridOptions{Team: lease(t, threads)})
		if !verify.SameSkyline(got, want) {
			t.Fatalf("t=%d disagrees with t=1", threads)
		}
	}
}

// TestHybridTooManyDimsPanics checks that both algorithms refuse rows
// wider than point.MaxDims with the driver's explicit panic.
func TestHybridTooManyDimsPanics(t *testing.T) {
	want := fmt.Sprintf("core: Hybrid and Q-Flow support at most %d dimensions, got %d", point.MaxDims, point.MaxDims+1)
	m := point.NewMatrix(4, point.MaxDims+1)
	for name, run := range map[string]func(){
		"hybrid": func() { Hybrid(m, HybridOptions{}) },
		"qflow":  func() { QFlow(m, QFlowOptions{}) },
	} {
		func() {
			defer func() {
				if got := recover(); got != want {
					t.Errorf("%s: panic %v, want %q", name, got, want)
				}
			}()
			run()
		}()
	}
}

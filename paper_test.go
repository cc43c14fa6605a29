// The paper's evaluation (Section VII) as assertions over exact counters.
//
// Most of what Figures 4–9, Tables I–III and DESIGN.md §4's ablation map
// say is about work, and at one thread this repository counts work
// exactly and repeatably: Stats.DominanceTests, SkylineSize,
// PrefilterPruned. Each TestPaper… below names its figure or table,
// states the inequality it holds the counters to, and logs the table it
// computed — so a failure prints the numbers, and `go test -v -run
// '^TestPaper' .` prints DESIGN.md §5's tables. Everything runs at T = 1
// on seeded generator data (benchData: seed 42) at sizes tier-1 can
// afford; wall time against threads (Figures 10–13) is the one family
// counters cannot state and stays a benchmark grid in bench_test.go.
//
// Where this implementation disagrees with the paper the test pins what
// is true here and says so; DESIGN.md §5 lists those deviations.
package skybench_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"text/tabwriter"

	"skybench"

	"skybench/internal/dataset"
	"skybench/internal/point"
)

// paperN is the base cardinality of the synthetic cells; paperDims and
// paperAlphas are the d and α sweeps of Figures 4–8.
const paperN = 8000

// paperArm is the paper's Hybrid: no code words, so every dominance
// test the paper's algorithm makes is made and counted. The tests below
// that assert Hybrid's counts run it; the shipped arm skips some of
// those tests (TestPaperAblationMap prices the skip).
var paperArm = skybench.Ablation{NoCodes: true}

var (
	paperDims   = []int{4, 8, 12}
	paperAlphas = []int{1 << 7, 1 << 10, 1 << 13, 1 << 16}
)

// paperBench runs queries at one thread and collects the table the test
// logs when it ends, so a failure is read against the numbers. The
// figure tests run some 10⁸ dominance tests between them, so -short (the
// race detector's run) skips them.
type paperBench struct {
	t   *testing.T
	eng *skybench.Engine
	buf strings.Builder
	tab *tabwriter.Writer
}

func newPaperBench(t *testing.T, header ...any) *paperBench {
	t.Helper()
	if testing.Short() {
		t.Skip("counter assertions over the paper's figures: skipped with -short")
	}
	p := &paperBench{t: t, eng: skybench.NewEngine(1)}
	t.Cleanup(p.eng.Close)
	p.tab = tabwriter.NewWriter(&p.buf, 0, 0, 2, ' ', tabwriter.AlignRight)
	p.row(header...)
	t.Cleanup(func() {
		p.tab.Flush()
		t.Log("\n" + p.buf.String())
	})
	return p
}

// stats answers q over m on the one-thread engine.
func (p *paperBench) stats(m point.Matrix, q skybench.Query) skybench.Stats {
	p.t.Helper()
	ds, err := skybench.DatasetFromFlat(m.Flat(), m.N(), m.D())
	if err != nil {
		p.t.Fatal(err)
	}
	res, err := p.eng.Run(context.Background(), ds, q)
	if err != nil {
		p.t.Fatal(err)
	}
	return res.Stats
}

// dts is the dominance-test count of q over m.
func (p *paperBench) dts(m point.Matrix, q skybench.Query) uint64 {
	p.t.Helper()
	return p.stats(m, q).DominanceTests
}

// row appends one line to the table.
func (p *paperBench) row(cells ...any) {
	for _, c := range cells {
		fmt.Fprintf(p.tab, "%v\t", c)
	}
	fmt.Fprintln(p.tab)
}

// TestPaperFig4SkylineSize is Figure 4: |SKY| grows with d on every
// distribution, and correlated < independent < anticorrelated at every d.
func TestPaperFig4SkylineSize(t *testing.T) {
	p := newPaperBench(t, "|SKY| n=8000", "d=4", "d=8", "d=12")
	size := map[dataset.Distribution][]int{}
	for _, dist := range dataset.AllDistributions {
		cells := []any{dist}
		for _, d := range paperDims {
			s := p.stats(benchData(dist, paperN, d), skybench.Query{}).SkylineSize
			size[dist] = append(size[dist], s)
			cells = append(cells, s)
		}
		p.row(cells...)
	}
	for _, dist := range dataset.AllDistributions {
		if s := size[dist]; !(s[0] < s[1] && s[1] < s[2]) {
			t.Errorf("%s: skyline size does not grow with d: %v", dist, s)
		}
	}
	for i, d := range paperDims {
		c, ind, a := size[dataset.Correlated][i], size[dataset.Independent][i], size[dataset.Anticorrelated][i]
		if !(c < ind && ind < a) {
			t.Errorf("d=%d: want correlated < independent < anticorrelated, got %d, %d, %d", d, c, ind, a)
		}
	}
}

// TestPaperTable1RealData is Table I for the three stand-ins at full
// cardinality: n and d are the published ones, and the skyline fraction
// is within the stated tolerance of the published one — except WEATHER,
// whose stand-in is sparser than the real archive; it is pinned at what
// it measures, with the deviation, rather than retuned (DESIGN.md §5).
func TestPaperTable1RealData(t *testing.T) {
	p := newPaperBench(t, "dataset", "n", "d", "|SKY|", "measured %", "paper %", "deviation %")
	want := map[dataset.RealDataset]struct{ lo, hi float64 }{ // relative deviation from Table I
		dataset.NBA:     {-0.05, +0.05},
		dataset.House:   {-0.06, +0.06},
		dataset.Weather: {-0.32, -0.30}, // measured 7.69 % against 11.20 %
	}
	for _, r := range dataset.AllRealDatasets {
		m, spec := r.Load(1), r.Spec()
		if m.N() != spec.Cardinality || m.D() != spec.Dimensionality {
			t.Errorf("%s: stand-in is %d × %d, Table I says %d × %d", r, m.N(), m.D(), spec.Cardinality, spec.Dimensionality)
		}
		sky := p.stats(m, skybench.Query{}).SkylineSize
		frac := float64(sky) / float64(m.N())
		dev := frac/spec.SkylineFrac - 1
		p.row(r, m.N(), m.D(), sky, fmt.Sprintf("%.2f", 100*frac),
			fmt.Sprintf("%.2f", 100*spec.SkylineFrac), fmt.Sprintf("%+.1f", 100*dev))
		if w := want[r]; dev < w.lo || dev > w.hi {
			t.Errorf("%s: skyline fraction deviates %+.1f %% from Table I, want within [%+.0f %%, %+.0f %%]",
				r, 100*dev, 100*w.lo, 100*w.hi)
		}
	}
}

// TestPaperFig5Fig6Table2WorkOrder is Figures 5–6 and Table II read as
// work: Hybrid < Q-Flow < PSkyline in dominance tests at d ∈ {8, 12} on
// every distribution, at d = 8 over n ∈ {2000, 8000}, and on the three
// real-data stand-ins (at a twentieth of their cardinality: PSkyline's
// count grows with n·|SKY|).
//
// Deviation, pinned: at d = 4 on correlated and independent data Q-Flow
// does fewer tests than Hybrid. The skyline is a few dozen points there,
// M(S) has next to nothing to skip, and the β-queue pre-filter's own
// tests are most of Hybrid's count (TestPaperAblationMap).
func TestPaperFig5Fig6Table2WorkOrder(t *testing.T) {
	p := newPaperBench(t, "DTs", "n", "d", "hybrid", "qflow", "pskyline")
	type workload struct {
		name       string
		m          point.Matrix
		qflowFirst bool // the pinned deviation
	}
	var loads []workload
	for _, dist := range dataset.AllDistributions {
		for _, d := range paperDims {
			loads = append(loads, workload{dist.String(), benchData(dist, paperN, d), d == 4 && dist != dataset.Anticorrelated})
		}
		loads = append(loads, workload{dist.String(), benchData(dist, 2000, benchD), false})
	}
	for _, r := range dataset.AllRealDatasets {
		loads = append(loads, workload{r.String(), r.Load(0.05), false})
	}
	for _, w := range loads {
		h := p.dts(w.m, skybench.Query{Algorithm: skybench.Hybrid, Ablation: paperArm})
		q := p.dts(w.m, skybench.Query{Algorithm: skybench.QFlow})
		ps := p.dts(w.m, skybench.Query{Algorithm: skybench.PSkyline})
		p.row(w.name, w.m.N(), w.m.D(), h, q, ps)
		first, second, order := h, q, "hybrid < qflow < pskyline"
		if w.qflowFirst {
			first, second, order = q, h, "qflow < hybrid < pskyline (pinned deviation)"
		}
		if !(first < second && second < ps) {
			t.Errorf("%s n=%d d=%d: want %s, got hybrid %d, qflow %d, pskyline %d",
				w.name, w.m.N(), w.m.D(), order, h, q, ps)
		}
	}
}

// alphaSweep tabulates the dominance tests of q at each of paperAlphas,
// per distribution, and hands each distribution's series to check.
func alphaSweep(t *testing.T, q skybench.Query, check func(dist dataset.Distribution, dts []uint64)) {
	p := newPaperBench(t, fmt.Sprintf("%s DTs n=8000 d=8", q.Algorithm), "α=2^7", "2^10", "2^13", "2^16")
	for _, dist := range dataset.AllDistributions {
		m := benchData(dist, paperN, benchD)
		cells := []any{dist}
		var dts []uint64
		for _, alpha := range paperAlphas {
			q.Alpha = alpha
			v := p.dts(m, q)
			dts = append(dts, v)
			cells = append(cells, v)
		}
		p.row(cells...)
		check(dist, dts)
	}
}

// TestPaperFig7QFlowAlpha is Figure 7 as far as counters at one thread
// can state it: Q-Flow's dominance tests do not depend on α at all.
// Phase II skips every peer whose pruned flag is already set, and one
// thread sets the flags in L1 order, so a block of any size is the same
// sequential sort-filter scan. The paper's optimum at α = 2^13 is
// therefore a parallel effect (barriers against redundant peer tests)
// and not one a T = 1 count can confirm or refute.
func TestPaperFig7QFlowAlpha(t *testing.T) {
	alphaSweep(t, skybench.Query{Algorithm: skybench.QFlow}, func(dist dataset.Distribution, dts []uint64) {
		for _, v := range dts[1:] {
			if v != dts[0] {
				t.Errorf("%s: Q-Flow's T = 1 work depends on α: %v", dist, dts)
				break
			}
		}
	})
}

// TestPaperFig8HybridAlpha is Figure 8: Hybrid's dominance tests are
// non-decreasing in α on every distribution. The level-2 masks exist only
// in M(S), so only Phase I has them; a larger block moves tests from
// Phase I to Phase II's peer scan, which filters on level-1 masks alone
// (TestPaperAblationMap: without level 2, α changes nothing). That is why
// Hybrid's default is 2^10 and not Q-Flow's 2^13.
func TestPaperFig8HybridAlpha(t *testing.T) {
	alphaSweep(t, skybench.Query{Algorithm: skybench.Hybrid, Ablation: paperArm}, func(dist dataset.Distribution, dts []uint64) {
		for i := 1; i < len(dts); i++ {
			if dts[i] < dts[i-1] {
				t.Errorf("%s: Hybrid's work falls as α grows: %v", dist, dts)
				break
			}
		}
	})
}

// TestPaperFig9PivotMedian is Figure 9: of the five pivot strategies the
// per-dimension median does the fewest dominance tests on independent and
// anticorrelated data. Only the minimum is asserted; the order among the
// other four moves with the seed and with n.
func TestPaperFig9PivotMedian(t *testing.T) {
	pivots := []skybench.PivotStrategy{
		skybench.PivotMedian, skybench.PivotBalanced, skybench.PivotManhattan,
		skybench.PivotVolume, skybench.PivotRandom,
	}
	header := []any{"Hybrid DTs n=8000 d=8"}
	for _, pv := range pivots {
		header = append(header, pv)
	}
	p := newPaperBench(t, header...)
	for _, dist := range []dataset.Distribution{dataset.Independent, dataset.Anticorrelated} {
		m := benchData(dist, paperN, benchD)
		cells := []any{dist}
		var median uint64
		for _, pv := range pivots {
			dts := p.dts(m, skybench.Query{Pivot: pv, Seed: 42, Ablation: paperArm})
			cells = append(cells, dts)
			if pv == skybench.PivotMedian {
				median = dts
			} else if dts <= median {
				t.Errorf("%s: pivot %s does %d tests, median %d", dist, pv, dts, median)
			}
		}
		p.row(cells...)
	}
}

// TestPaperTable3PBSkyTreeWork is Table III's work column: at one thread
// PBSkyTree performs exactly BSkyTree's dominance tests, so whatever it
// loses to BSkyTree single-threaded is the price of its parallel
// structure and not extra comparisons.
func TestPaperTable3PBSkyTreeWork(t *testing.T) {
	p := newPaperBench(t, "DTs n=8000 d=8", "bskytree", "pbskytree T=1")
	for _, dist := range dataset.AllDistributions {
		m := benchData(dist, paperN, benchD)
		seq := p.dts(m, skybench.Query{Algorithm: skybench.BSkyTree})
		par := p.dts(m, skybench.Query{Algorithm: skybench.PBSkyTree})
		p.row(dist, seq, par)
		if seq != par {
			t.Errorf("%s: PBSkyTree at T = 1 does %d tests, BSkyTree %d", dist, par, seq)
		}
	}
}

// TestPaperAblationMap is DESIGN.md §4: what each Ablation flag does to
// Hybrid's work.
//
//   - NoPhase2Split raises the count everywhere; NoMS and NoLevel2 raise
//     it on independent and anticorrelated data. On correlated data the
//     pre-filter leaves fewer than α points, the run is one block, and
//     Phase I — the only reader of M(S) — has nothing to read.
//   - NoMS and NoLevel2 give the same count, and it is the count of a
//     single-block run (α ≥ n). With level 2 off, a point meets the same
//     tests whether a predecessor sits in S or in its own block — the
//     skyline points before it in (level, mask, L1) order whose level-1
//     mask is a subset of its own, up to the first dominator — so α only
//     moves tests between the phases.
//   - Deviation, pinned: NoPrefilter lowers the count on all three
//     distributions although the filter prunes points. The β-queues' own
//     tests outnumber the tests their victims would have cost, most of
//     which fall to the first skyline points they meet. Fewer tests is
//     not what the filter is for: its tests run against a cache-resident
//     queue and spare the pruned rows the gather, sort and partitioning.
//     A count cannot price that; loadbench's batch_corr does.
//
// Every column but the last runs the paper's arm (NoCodes). The last,
// "shipped", is the default arm: it skips an M(S) partition whose
// minimum code word rules out every member, so it does no more tests
// than the paper's Hybrid, and fewer wherever Phase I reads M(S) at all
// (independent and anticorrelated data).
func TestPaperAblationMap(t *testing.T) {
	p := newPaperBench(t, "Hybrid DTs n=8000 d=8", "full", "NoMS", "NoLevel2", "one block", "NoPhase2Split", "NoPrefilter", "pruned", "shipped")
	for _, dist := range dataset.AllDistributions {
		m := benchData(dist, paperN, benchD)
		ab := func(a skybench.Ablation) uint64 {
			a.NoCodes = true
			return p.dts(m, skybench.Query{Ablation: a})
		}
		st := p.stats(m, skybench.Query{Ablation: paperArm})
		full, pruned := st.DominanceTests, st.PrefilterPruned
		noMS := ab(skybench.Ablation{NoMS: true})
		noLevel2 := ab(skybench.Ablation{NoLevel2: true})
		oneBlock := p.dts(m, skybench.Query{Alpha: paperN, Ablation: paperArm})
		noSplit := ab(skybench.Ablation{NoPhase2Split: true})
		noPrefilter := ab(skybench.Ablation{NoPrefilter: true})
		shipped := p.dts(m, skybench.Query{})
		p.row(dist, full, noMS, noLevel2, oneBlock, noSplit, noPrefilter, pruned, shipped)
		if shipped > full || dist != dataset.Correlated && shipped == full {
			t.Errorf("%s: the shipped arm does %d tests, the paper's Hybrid %d: want no more, and fewer off correlated data", dist, shipped, full)
		}
		if noSplit <= full {
			t.Errorf("%s: NoPhase2Split does %d tests, the full algorithm %d: the split saves nothing", dist, noSplit, full)
		}
		if dist != dataset.Correlated && noMS <= full {
			t.Errorf("%s: NoMS does %d tests, the full algorithm %d: M(S) saves nothing", dist, noMS, full)
		}
		if noMS != noLevel2 || noMS != oneBlock {
			t.Errorf("%s: NoMS %d, NoLevel2 %d and a single block %d should coincide", dist, noMS, noLevel2, oneBlock)
		}
		if pruned == 0 || noPrefilter >= full {
			t.Errorf("%s: pinned deviation is a pre-filter that prunes (%d points) yet costs more tests than it saves (full %d, NoPrefilter %d)",
				dist, pruned, full, noPrefilter)
		}
	}
}

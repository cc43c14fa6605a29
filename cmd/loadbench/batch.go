package main

import (
	"context"

	"skybench"
)

// batch is the two Engine workloads. One caller runs a primary and a
// secondary query per round over an immutable Dataset:
//
//	batch_anti  anticorrelated, DT-bound: the skyline (boolean kernels)
//	            beside the 4-skyband (counting kernels)
//	batch_corr  correlated, scan-bound: the full space (zero-copy)
//	            beside a 4-dimension subspace (staged copy, d = 4 kernels)
type batch struct {
	cfg     *config
	sp      spec
	dist    string
	n, d    int
	warmup  int
	queries [2]skybench.Query
	// team says whether the class is one rigid thread team from end to
	// end. Half of batch_corr's secondary is the single-threaded staging
	// copy, so it is not.
	team [2]bool

	vals []float64
	ds   *skybench.Dataset
	eng  *skybench.Engine
	// stats holds Result.Stats of every measured op, per class.
	stats [2][]skybench.Stats
}

func newBatch(cfg *config) *batch {
	w := &batch{cfg: cfg, d: 8}
	half := make([]skybench.Pref, w.d)
	for j := w.d / 2; j < w.d; j++ {
		half[j] = skybench.Ignore
	}
	if cfg.workload == "batch_anti" {
		w.dist, w.n, w.warmup = anticorrelated, 32768, 4
		w.queries, w.team = [2]skybench.Query{{}, {SkybandK: 4}}, [2]bool{true, true}
		w.sp = spec{
			name:    "batch_anti",
			classes: [2]string{"Engine.Run Hybrid skyline", "Engine.Run Hybrid 4-skyband"},
			rounds:  38,
		}
	} else {
		w.dist, w.n, w.warmup = correlated, 1_000_000, 12
		w.queries, w.team = [2]skybench.Query{{}, {Prefs: half}}, [2]bool{true, false}
		w.sp = spec{
			name:    "batch_corr",
			classes: [2]string{"Engine.Run Hybrid full space", "Engine.Run Hybrid 4-dim subspace"},
			rounds:  100,
		}
	}
	if cfg.quick {
		w.n, w.warmup, w.sp.rounds = w.n/16, 1, 4
	}
	w.sp.callers, w.sp.opsPerRound, w.sp.opName, w.sp.samples, w.sp.spans = 1, 2, "queries", 2, 2
	return w
}

func (w *batch) spec() spec { return w.sp }

func (w *batch) gen() { w.vals = genRows(w.dist, w.n, w.d, w.cfg.seed) }

func (w *batch) setup(rec *recorder) error {
	var err error
	rec.h.timed(false, func() {
		w.ds, err = skybench.DatasetFromFlat(w.vals, w.n, w.d)
		w.eng = skybench.NewEngine(w.cfg.threads)
	})
	if err != nil {
		return err
	}
	for r := 0; r < w.warmup; r++ {
		w.round(-1, rec)
	}
	for c := range w.stats {
		w.stats[c] = w.stats[c][:0]
	}
	return nil
}

func (w *batch) close() {
	if w.eng != nil {
		w.eng.Close()
		w.eng = nil
	}
}

func (w *batch) round(r int, rec *recorder) {
	ctx := context.Background()
	for class, q := range w.queries {
		var res skybench.Result
		var err error
		var sp int32
		p := rec.h.timed(w.team[class], func() {
			sp = rec.tr.begin("engine.run", -1, int32(2*r+class))
			res, err = w.eng.Run(ctx, w.ds, q)
			rec.tr.end(sp, err == nil)
		})
		if r < 0 {
			continue
		}
		rec.tr.count(sp, statCounters(&res.Stats))
		w.stats[class] = append(w.stats[class], res.Stats)
		rec.add(0, sample{
			class: uint8(class), round: int32(r), piece: int32(p),
			ns: rec.h.pieces[p].ns, aux: int64(res.Stats.Elapsed),
			ok: err == nil, dig: digestOf(res.Indices, res.Counts),
		})
	}
}

// statCounters is the counter snapshot a span around an engine run
// carries.
func statCounters(s *skybench.Stats) map[string]float64 {
	return map[string]float64{
		"dominance_tests":  float64(s.DominanceTests),
		"output":           float64(s.SkylineSize),
		"prefilter_pruned": float64(s.PrefilterPruned),
		"elapsed_ns":       float64(s.Elapsed),
		"init_ns":          float64(s.Timings.Init),
		"prefilter_ns":     float64(s.Timings.Prefilter),
		"pivot_ns":         float64(s.Timings.Pivot),
		"phase1_ns":        float64(s.Timings.PhaseOne),
		"phase2_ns":        float64(s.Timings.PhaseTwo),
	}
}

func (w *batch) verify(rec *recorder) {
	var want [2][]digest
	var ok [2][]bool
	for class, q := range w.queries {
		d, good := expect(w.cfg, w.eng, w.vals, w.n, w.d, shape{prefs: q.Prefs, k: q.SkybandK})
		want[class], ok[class] = []digest{d}, []bool{good}
	}
	rec.verifyDigests(want, ok)
}

// sumStats folds the stats of one class into totals.
func sumStats(stats []skybench.Stats) (t skybench.Stats) {
	for _, s := range stats {
		t.DominanceTests += s.DominanceTests
		t.PrefilterPruned += s.PrefilterPruned
		t.Elapsed += s.Elapsed
		t.Timings.Init += s.Timings.Init
		t.Timings.Prefilter += s.Timings.Prefilter
		t.Timings.Pivot += s.Timings.Pivot
		t.Timings.PhaseOne += s.Timings.PhaseOne
		t.Timings.PhaseTwo += s.Timings.PhaseTwo
	}
	return t
}

// outside is the class's median latency outside the engine's own
// Elapsed (lease, staging, result copy), in ms.
func outside(rec *recorder, class int) float64 {
	var xs []float64
	rec.each(class, func(s *sample) { xs = append(xs, float64(s.ns-s.aux)/1e6) })
	return median(xs)
}

// speedup is the paper's scaling figure as far as this host shows it:
// the primary query's median at one thread over its median at T, eight
// interleaved repetitions each. T never exceeds nproc.
func (w *batch) speedup(rec *recorder) float64 {
	ctx := context.Background()
	var one, all []float64
	for i := 0; i < 8; i++ {
		for _, threads := range []int{1, w.cfg.threads} {
			q := w.queries[primary]
			q.Threads = threads
			p := rec.h.timed(threads > 1, func() {
				sp := rec.tr.begin("engine.run", -1, int32(1_000_000+threads))
				_, err := w.eng.Run(ctx, w.ds, q)
				rec.tr.end(sp, err == nil)
				rec.check(err == nil, "scaling run at %d threads: %v", threads, err)
			})
			if threads == 1 {
				one = append(one, float64(p))
			} else {
				all = append(all, float64(p))
			}
		}
	}
	norm := func(pieces []float64) float64 {
		ms := make([]float64, len(pieces))
		for i, p := range pieces {
			ms[i] = rec.normMs(int(p))
		}
		return median(ms)
	}
	return norm(one) / norm(all)
}

func (w *batch) layers(rec *recorder, m metrics) {
	n := float64(w.n)
	pri, sec := sumStats(w.stats[primary]), sumStats(w.stats[secondary])
	ops := float64(len(w.stats[primary]))
	phases := func(s skybench.Stats) float64 { return float64(s.Timings.PhaseOne + s.Timings.PhaseTwo) }
	each := func(f func(s skybench.Stats) float64) []float64 {
		xs := make([]float64, len(w.stats[primary]))
		for i, s := range w.stats[primary] {
			xs[i] = f(s)
		}
		return xs
	}
	sp := w.speedup(rec)
	if w.sp.name == "batch_anti" {
		m.set("point.ns_per_dt", phases(pri)/float64(pri.DominanceTests), "ns")
		m.set("point.band_ns_per_dt", phases(sec)/float64(sec.DominanceTests), "ns")
		m.set("core.dt_per_point", float64(pri.DominanceTests)/ops/n, "count")
		m.set("core.band_dt_per_point", float64(sec.DominanceTests)/ops/n, "count")
		m.set("core.phase_frac", phases(pri)/float64(pri.Elapsed), "ratio")
		m.set("engine.outside_us_p50", outside(rec, primary)*1e3, "us")
		m.set("engine.alloc_kb_per_run", float64(rec.rt.alloc)/1024/float64(max(rec.rt.ops, 1)), "KB")
		m.set("par.threads", float64(w.cfg.threads), "count")
		m.set("par.speedup", sp, "ratio")
		return
	}
	scan := float64(sec.Timings.Init + sec.Timings.Prefilter + sec.Timings.Pivot)
	m.set("core.scan_frac", scan/float64(sec.Elapsed), "ratio")
	m.set("core.init_ms_p50", median(each(func(s skybench.Stats) float64 { return float64(s.Timings.Init) / 1e6 })), "ms")
	m.set("core.sort_ms_p50", median(each(func(s skybench.Stats) float64 { return float64(s.SortTime) / 1e6 })), "ms")
	m.set("prefilter.ms_p50", median(each(func(s skybench.Stats) float64 { return float64(s.Timings.Prefilter) / 1e6 })), "ms")
	m.set("prefilter.pruned_frac", float64(pri.PrefilterPruned)/ops/n, "ratio")
	m.set("pivot.ms_p50", median(each(func(s skybench.Stats) float64 { return float64(s.Timings.Pivot) / 1e6 })), "ms")
	m.set("engine.stage_ms_p50", outside(rec, secondary), "ms")
	m.set("par.corr_speedup", sp, "ratio")
}

// The thread-scaling grid of the paper's evaluation (Figures 10–13)
// under testing.B: wall time against threads is the one family of
// findings the counter assertions in paper_test.go cannot state. Each
// sub-benchmark is one cell of a figure's series; cells asking for more
// threads than the host has are skipped, so on a 2-vCPU host the grid is
// a smoke test and on a wider one it is the curve. Performance claims
// come from paired cmd/loadbench runs.
package skybench_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"skybench"

	"skybench/internal/dataset"
	"skybench/internal/par"
	"skybench/internal/point"
	"skybench/internal/prefilter"
)

// Benchmark scales: small enough that the full suite completes on a
// laptop, large enough that algorithmic differences dominate overheads.
const (
	benchN = 4000
	benchD = 8
)

var benchDims = []int{4, 8, 12}
var benchNs = []int{1000, 4000, 16000}
var benchThreads = []int{1, 2, 4}

// dataCache avoids regenerating identical datasets across benchmarks.
var dataCache sync.Map

func benchData(dist dataset.Distribution, n, d int) point.Matrix {
	key := fmt.Sprintf("%s/%d/%d", dist, n, d)
	if v, ok := dataCache.Load(key); ok {
		return v.(point.Matrix)
	}
	m := dataset.Generate(dist, n, d, 42)
	dataCache.Store(key, m)
	return m
}

// runAlg times one cell: the Dataset and a warm Engine are built before
// the timer starts, so an iteration is exactly one Engine.Run. Cells
// asking for more threads than the host has are skipped, not
// oversubscribed.
func runAlg(b *testing.B, alg skybench.Algorithm, m point.Matrix, threads int) {
	b.Helper()
	if threads > runtime.GOMAXPROCS(0) {
		b.Skipf("threads=%d exceeds GOMAXPROCS=%d", threads, runtime.GOMAXPROCS(0))
	}
	ds, err := skybench.DatasetFromFlat(m.Flat(), m.N(), m.D())
	if err != nil {
		b.Fatal(err)
	}
	eng := skybench.NewEngine(threads)
	defer eng.Close()
	q := skybench.Query{Algorithm: alg, ReuseIndices: true}
	ctx := context.Background()
	last, err := eng.Run(ctx, ds, q) // start the pool, size the scratch
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if last, err = eng.Run(ctx, ds, q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(last.Stats.DominanceTests), "DTs/op")
	b.ReportMetric(float64(last.Stats.SkylineSize), "skypoints")
}

// threadScalingBench emits the thread-sweep cells of Figures 10–13.
func threadScalingBench(b *testing.B, a1, a2 skybench.Algorithm, overDims bool) {
	dist := dataset.Independent
	sweep := benchDims
	if !overDims {
		sweep = benchNs
	}
	for _, x := range sweep {
		var m point.Matrix
		var label string
		if overDims {
			m = benchData(dist, benchN, x)
			label = fmt.Sprintf("d=%d", x)
		} else {
			m = benchData(dist, x, benchD)
			label = fmt.Sprintf("n=%d", x)
		}
		for _, t := range benchThreads {
			for _, alg := range []skybench.Algorithm{a1, a2} {
				b.Run(fmt.Sprintf("%s/t=%d/alg=%s", label, t, alg), func(b *testing.B) {
					runAlg(b, alg, m, t)
				})
			}
		}
	}
}

// BenchmarkFig10ThreadScalingD is Figure 10: Q-Flow vs PSkyline over d.
func BenchmarkFig10ThreadScalingD(b *testing.B) {
	threadScalingBench(b, skybench.QFlow, skybench.PSkyline, true)
}

// BenchmarkFig11ThreadScalingN is Figure 11: Q-Flow vs PSkyline over n.
func BenchmarkFig11ThreadScalingN(b *testing.B) {
	threadScalingBench(b, skybench.QFlow, skybench.PSkyline, false)
}

// BenchmarkFig12HybridScalingD is Figure 12: Hybrid vs PBSkyTree over d.
func BenchmarkFig12HybridScalingD(b *testing.B) {
	threadScalingBench(b, skybench.Hybrid, skybench.PBSkyTree, true)
}

// BenchmarkFig13HybridScalingN is Figure 13: Hybrid vs PBSkyTree over n.
func BenchmarkFig13HybridScalingN(b *testing.B) {
	threadScalingBench(b, skybench.Hybrid, skybench.PBSkyTree, false)
}

// BenchmarkPrefilterPays prices the β-queue pre-filter against running
// without it (Ablation.NoPrefilter) on the shapes where it prunes least
// and most: anticorrelated 32 768 and 65 536 × 8 (batch_anti's shape),
// independent 50 000 × 6 in the full space and on 3 of its 6 columns
// (serve_mix's data) and correlated 1 000 000 × 8 (batch_corr's), each
// at k = 1 and k = 4, on an Engine of GOMAXPROCS threads. Beside the
// time a default cell reports the rows each pass pruned (pass1-pruned,
// pass2-pruned, from one Filter on a team of the same size, which makes
// the run's decisions) and the rows the run pruned in all (pruned). The
// pre-filter's stop rule is priced here: where its pass 1 prunes
// little, a thread stops filtering and the default cell should read
// near the NoPrefilter one.
func BenchmarkPrefilterPays(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	cols3 := []skybench.Pref{skybench.Min, skybench.Ignore, skybench.Min, skybench.Ignore, skybench.Min, skybench.Ignore}
	pool := par.NewPool(threads)
	defer pool.Close()
	team := pool.Lease(threads)
	r := prefilter.NewRunner()
	for _, sh := range []struct {
		name  string
		dist  dataset.Distribution
		n, d  int
		prefs []skybench.Pref
	}{
		{"anti-32768x8", dataset.Anticorrelated, 32768, 8, nil},
		{"anti-65536x8", dataset.Anticorrelated, 65536, 8, nil},
		{"indep-50000x6", dataset.Independent, 50000, 6, nil},
		{"indep-50000x6-3cols", dataset.Independent, 50000, 6, cols3},
		{"corr-1Mx8", dataset.Correlated, 1_000_000, 8, nil},
	} {
		// The shape's data is built by the first of its cells that runs,
		// so a -bench pattern that names other shapes never builds it.
		var ds *skybench.Dataset
		var v point.View
		data := func(b *testing.B) {
			if ds != nil {
				return
			}
			m := benchData(sh.dist, sh.n, sh.d)
			var err error
			if ds, err = skybench.DatasetFromFlat(m.Flat(), m.N(), m.D()); err != nil {
				b.Fatal(err)
			}
			v.Reset(m.Flat(), m.N(), m.D(), prefOps(sh.prefs))
		}
		for _, k := range []int{1, 4} {
			for _, off := range []bool{false, true} {
				arm := "default"
				if off {
					arm = "noprefilter"
				}
				b.Run(fmt.Sprintf("%s/k=%d/%s", sh.name, k, arm), func(b *testing.B) {
					data(b)
					var pass1, pass2 int
					if !off {
						rs := r.Filter(v, 0, k, true, team, nil)
						pass1, pass2 = v.N()-rs.Candidates(), rs.Candidates()-rs.Len()
					}
					eng := skybench.NewEngine(threads)
					defer eng.Close()
					q := skybench.Query{Prefs: sh.prefs, SkybandK: k, ReuseIndices: true, Ablation: skybench.Ablation{NoPrefilter: off}}
					ctx := context.Background()
					last, err := eng.Run(ctx, ds, q)
					if err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if last, err = eng.Run(ctx, ds, q); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(last.Stats.PrefilterPruned), "pruned")
					if !off {
						b.ReportMetric(float64(pass1), "pass1-pruned")
						b.ReportMetric(float64(pass2), "pass2-pruned")
					}
				})
			}
		}
	}
}

// prefOps is the point.View form of a preference vector (nil for none):
// what the Engine reads its rows through.
func prefOps(prefs []skybench.Pref) []point.PrefOp {
	if prefs == nil {
		return nil
	}
	ops := make([]point.PrefOp, len(prefs))
	for j, p := range prefs {
		switch p {
		case skybench.Max:
			ops[j] = point.PrefNegate
		case skybench.Ignore:
			ops[j] = point.PrefDrop
		}
	}
	return ops
}

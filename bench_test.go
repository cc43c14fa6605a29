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
	"skybench/internal/point"
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

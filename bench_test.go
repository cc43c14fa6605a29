// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section VII) under testing.B. Each sub-benchmark is one
// cell of the corresponding figure's series, named so that `go test
// -bench` output can be read as the figure's rows. Workloads are scaled
// down from the paper's (see DESIGN.md §5). The grid is for orientation
// across d, n, α, pivots and all twelve algorithms; performance claims
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

// benchT is the thread count of every cell that does not sweep threads:
// 4, capped at what the host can run in parallel (read per cell, so
// `go test -cpu` is honored).
func benchT() int { return min(4, runtime.GOMAXPROCS(0)) }

// algThreads is benchT, or 1 for the sequential BSkyTree.
func algThreads(alg skybench.Algorithm) int {
	if alg == skybench.BSkyTree {
		return 1
	}
	return benchT()
}

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
func runAlg(b *testing.B, alg skybench.Algorithm, m point.Matrix, threads int, mut func(*skybench.Query)) {
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
	if mut != nil {
		mut(&q)
	}
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

// BenchmarkFig4SkylineSizes measures skyline extraction per distribution
// at the base scale; the skypoints metric is the figure's y-axis.
func BenchmarkFig4SkylineSizes(b *testing.B) {
	for _, dist := range dataset.AllDistributions {
		for _, d := range benchDims {
			b.Run(fmt.Sprintf("dist=%s/d=%d", dist, d), func(b *testing.B) {
				runAlg(b, skybench.Hybrid, benchData(dist, benchN, d), benchT(), nil)
			})
		}
	}
}

// fig56Algos mirrors the five algorithms of Figures 5 and 6.
var fig56Algos = []skybench.Algorithm{
	skybench.BSkyTree, skybench.Hybrid, skybench.PBSkyTree,
	skybench.QFlow, skybench.PSkyline,
}

// BenchmarkFig5VaryDimensionality is Figure 5: the five algorithms as d
// grows, per distribution.
func BenchmarkFig5VaryDimensionality(b *testing.B) {
	for _, dist := range dataset.AllDistributions {
		for _, d := range benchDims {
			for _, alg := range fig56Algos {
				threads := algThreads(alg)
				b.Run(fmt.Sprintf("dist=%s/d=%d/alg=%s", dist, d, alg), func(b *testing.B) {
					runAlg(b, alg, benchData(dist, benchN, d), threads, nil)
				})
			}
		}
	}
}

// BenchmarkFig6VaryCardinality is Figure 6: the five algorithms as n
// grows, per distribution.
func BenchmarkFig6VaryCardinality(b *testing.B) {
	for _, dist := range dataset.AllDistributions {
		for _, n := range benchNs {
			for _, alg := range fig56Algos {
				threads := algThreads(alg)
				b.Run(fmt.Sprintf("dist=%s/n=%d/alg=%s", dist, n, alg), func(b *testing.B) {
					runAlg(b, alg, benchData(dist, n, benchD), threads, nil)
				})
			}
		}
	}
}

// BenchmarkTable1RealDataSizes measures the real-data stand-ins
// themselves (Table I): the skypoints metric is |SKY|.
func BenchmarkTable1RealDataSizes(b *testing.B) {
	for _, r := range dataset.AllRealDatasets {
		b.Run(fmt.Sprintf("dataset=%s", r), func(b *testing.B) {
			runAlg(b, skybench.Hybrid, r.Load(0.05), benchT(), nil)
		})
	}
}

// BenchmarkTable2RealData is Table II: all five algorithms on the
// real-data stand-ins.
func BenchmarkTable2RealData(b *testing.B) {
	for _, r := range dataset.AllRealDatasets {
		m := r.Load(0.05)
		for _, alg := range fig56Algos {
			threads := algThreads(alg)
			b.Run(fmt.Sprintf("dataset=%s/alg=%s", r, alg), func(b *testing.B) {
				runAlg(b, alg, m, threads, nil)
			})
		}
	}
}

// BenchmarkFig7AlphaQFlow is Figure 7: Q-Flow across the α sweep.
func BenchmarkFig7AlphaQFlow(b *testing.B) {
	for _, dist := range dataset.AllDistributions {
		m := benchData(dist, benchN, benchD)
		for _, alpha := range []int{1 << 7, 1 << 10, 1 << 13, 1 << 16} {
			b.Run(fmt.Sprintf("dist=%s/alpha=%d", dist, alpha), func(b *testing.B) {
				runAlg(b, skybench.QFlow, m, benchT(), func(q *skybench.Query) { q.Alpha = alpha })
			})
		}
	}
}

// BenchmarkFig8AlphaHybrid is Figure 8: Hybrid across the α sweep.
func BenchmarkFig8AlphaHybrid(b *testing.B) {
	for _, dist := range dataset.AllDistributions {
		m := benchData(dist, benchN, benchD)
		for _, alpha := range []int{1 << 7, 1 << 10, 1 << 13, 1 << 16} {
			b.Run(fmt.Sprintf("dist=%s/alpha=%d", dist, alpha), func(b *testing.B) {
				runAlg(b, skybench.Hybrid, m, benchT(), func(q *skybench.Query) { q.Alpha = alpha })
			})
		}
	}
}

// BenchmarkFig9PivotSelection is Figure 9: Hybrid's pivot strategies
// across α on the independent workload.
func BenchmarkFig9PivotSelection(b *testing.B) {
	m := benchData(dataset.Independent, benchN, benchD)
	pivots := []skybench.PivotStrategy{
		skybench.PivotBalanced, skybench.PivotVolume, skybench.PivotManhattan,
		skybench.PivotRandom, skybench.PivotMedian,
	}
	for _, alpha := range []int{16, 128, 1024, 8192} {
		for _, p := range pivots {
			p := p
			b.Run(fmt.Sprintf("alpha=%d/pivot=%s", alpha, p), func(b *testing.B) {
				runAlg(b, skybench.Hybrid, m, benchT(), func(q *skybench.Query) {
					q.Alpha = alpha
					q.Pivot = p
					q.Seed = 42
				})
			})
		}
	}
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
					runAlg(b, alg, m, t, nil)
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

// BenchmarkTable3PBSkyTreeOverhead is Table III: single-threaded
// PBSkyTree against natively sequential BSkyTree.
func BenchmarkTable3PBSkyTreeOverhead(b *testing.B) {
	for _, dist := range dataset.AllDistributions {
		m := benchData(dist, benchN, benchD)
		for _, alg := range []skybench.Algorithm{skybench.BSkyTree, skybench.PBSkyTree} {
			b.Run(fmt.Sprintf("dist=%s/alg=%s", dist, alg), func(b *testing.B) {
				runAlg(b, alg, m, 1, nil)
			})
		}
	}
}

// Ablation benchmarks: the Hybrid design choices DESIGN.md calls out,
// measured on the hardest (anticorrelated) workload.
func BenchmarkAblationHybridComponents(b *testing.B) {
	m := benchData(dataset.Anticorrelated, benchN, benchD)
	variants := []struct {
		name string
		ab   skybench.Ablation
	}{
		{"full", skybench.Ablation{}},
		{"no-ms", skybench.Ablation{NoMS: true}},
		{"no-level2", skybench.Ablation{NoLevel2: true}},
		{"no-prefilter", skybench.Ablation{NoPrefilter: true}},
		{"no-p2split", skybench.Ablation{NoPhase2Split: true}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			runAlg(b, skybench.Hybrid, m, benchT(), func(q *skybench.Query) { q.Ablation = v.ab })
		})
	}
}

// BenchmarkExtensionMulticore compares all six multicore algorithms in
// the suite (the paper's four plus the related-work PSFS and
// APSkyline) on the independent workload.
func BenchmarkExtensionMulticore(b *testing.B) {
	m := benchData(dataset.Independent, benchN, benchD)
	for _, alg := range []skybench.Algorithm{
		skybench.Hybrid, skybench.QFlow, skybench.PBSkyTree,
		skybench.PSkyline, skybench.PSFS, skybench.APSkyline,
	} {
		alg := alg
		b.Run(fmt.Sprintf("alg=%s", alg), func(b *testing.B) {
			runAlg(b, alg, m, benchT(), nil)
		})
	}
}

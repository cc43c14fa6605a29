package core

import (
	"testing"

	"skybench/internal/dataset"
	"skybench/internal/point"
)

// BenchmarkCountDominators prices one Phase I probe on the shape Phase
// I really walks: countDominators (Algorithm 3 over M(S)) at budget 1
// against the store a Hybrid run leaves behind on a 32 768-row d = 8
// anticorrelated input — its skyline, partitioned at both levels with
// minimum codes. The probes are 1 024 fresh rows of the same
// distribution, masked against the run's pivot and coded with its
// quantizer, as the Engine masks and codes its working set; some have
// a dominator in the store and stop on it, the rest walk every
// directory entry that passes the subset filter and the minimum-code
// pre-test. ns/op is per probe. "go" runs the Go bodies (the vector
// bodies off, point.SetVectorBodies), "avx512" the vector directory
// walk and level-2 scan (on a CPU with AVX512F+BW only); dt/probe, the
// dominance tests booked per probe, is the same on both.
func BenchmarkCountDominators(b *testing.B) {
	const n, d, probes = 32768, 8, 1024
	c := NewContext()
	c.Hybrid(dataset.Generate(dataset.Anticorrelated, n, d, 53).View(), HybridOptions{Team: lease(b, 1)})
	s := &c.sky
	pm := dataset.Generate(dataset.Anticorrelated, probes, d, 54)
	masks := make([]point.Mask, probes)
	codes := make([]uint64, probes)
	for i := range masks {
		masks[i] = point.ComputeMask(pm.Row(i), c.pv)
		codes[i] = c.quant.Code(pm.Row(i))
	}
	b.Logf("store: %d skyline rows in %d partitions", s.size(), s.msMask.Len())
	defer point.SetVectorBodies(point.VectorBodies())
	for _, vec := range []bool{false, true} {
		name := "go"
		if vec {
			name = "avx512"
		}
		b.Run(name, func(b *testing.B) {
			if vec && !point.HasAVX512BW() {
				b.Skip("no AVX512F+BW and POPCNT with OS-saved ZMM state on this CPU")
			}
			point.SetVectorBodies(vec)
			var dts uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := i % probes
				s.countDominators(pm.Row(p), codes[p], masks[p], true, 1, &dts)
			}
			b.ReportMetric(float64(dts)/float64(b.N), "dt/probe")
		})
	}
}

package core

import (
	"fmt"
	"testing"

	"skybench/internal/dataset"
	"skybench/internal/point"
)

// BenchmarkCountDominators prices one Phase I probe on the shapes Phase
// I really walks: countDominators (Algorithm 3) against the store a run
// leaves behind, at budget 1 unless the row says otherwise. ns/op is per
// probe.
//   - hybrid-d8: a Hybrid run's skyline of 32 768 d = 8 anticorrelated
//     rows, partitioned at both levels with minimum codes. The probes
//     are 1 024 fresh rows of the same distribution, masked against the
//     run's pivot and coded with its quantizer, as the Engine masks and
//     codes its working set; some have a dominator in the store and stop
//     on it, the rest walk every directory entry that passes the subset
//     filter and the minimum-code pre-test.
//   - hybrid-d8-k4: the same store and probes at budget 4, the shape of
//     a 4-skyband run's probe (its store is a band, not this skyline).
//   - hybrid-d4: a Hybrid run's skyline of 50 000 d = 4 independent
//     rows, a directory of a few entries, probed the same way.
//   - qflow-d4 and qflow-d8: a Q-Flow run's skyline of 200 000 d = 4 and
//     50 000 d = 8 independent rows, one partition with every mask 0, no
//     level 2 and no code skip, so each probe is one masked scan over
//     the whole store whose every row passes the subset filter. The
//     probes are 1 024 fresh rows of the same distribution, coded with
//     the run's quantizer.
//
// "go" runs the Go probe (the vector bodies off, point.SetVectorBodies),
// "avx512" point.ProbeDirectory's vector body (on a CPU with AVX512F+BW
// only); dt/probe, the dominance tests booked per probe, is the same on
// both,
// and parts/probe is the directory entries a probe visits: those that
// pass the subset filter and the minimum-code skip before the probe
// reaches its budget.
func BenchmarkCountDominators(b *testing.B) {
	const probes = 1024
	shapes := []struct {
		name      string
		dist      dataset.Distribution
		n, d      int
		partition bool
		budget    int
	}{
		{"hybrid-d8", dataset.Anticorrelated, 32768, 8, true, 1},
		{"hybrid-d8-k4", dataset.Anticorrelated, 32768, 8, true, 4},
		{"hybrid-d4", dataset.Independent, 50000, 4, true, 1},
		{"qflow-d4", dataset.Independent, 200000, 4, false, 1},
		{"qflow-d8", dataset.Independent, 50000, 8, false, 1},
	}
	defer point.SetVectorBodies(point.VectorBodies())
	for _, sh := range shapes {
		c := NewContext()
		in := dataset.Generate(sh.dist, sh.n, sh.d, 53).View()
		if sh.partition {
			c.Hybrid(in, HybridOptions{Team: lease(b, 1)})
		} else {
			c.QFlow(in, QFlowOptions{Team: lease(b, 1)})
		}
		s := &c.sky
		pm := dataset.Generate(sh.dist, probes, sh.d, 54)
		masks := make([]point.Mask, probes)
		codes := make([]uint64, probes)
		parts := 0
		for i := range masks {
			if sh.partition {
				masks[i] = point.ComputeMask(pm.Row(i), c.pv)
			}
			codes[i] = c.quant.Code(pm.Row(i))
			parts += s.visitedEntries(pm.Row(i), codes[i], masks[i], sh.budget)
		}
		b.Logf("%s store: %d skyline rows in %d partitions", sh.name, s.size(), s.msMask.Len())
		for _, vec := range []bool{false, true} {
			body := "go"
			if vec {
				body = "avx512"
			}
			b.Run(fmt.Sprintf("%s/%s", sh.name, body), func(b *testing.B) {
				if vec && !point.HasAVX512BW() {
					b.Skip("no AVX512F+BW and POPCNT with OS-saved ZMM state on this CPU")
				}
				point.SetVectorBodies(vec)
				var dts uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := i % probes
					s.countDominators(pm.Row(p), codes[p], masks[p], sh.budget, &dts)
				}
				b.ReportMetric(float64(dts)/float64(b.N), "dt/probe")
				b.ReportMetric(float64(parts)/probes, "parts/probe")
			})
		}
	}
}

// visitedEntries is the number of directory entries the probe visits
// for q at budget: those that pass the subset filter and, on a
// partitioned run, the minimum-code pre-test, up to the one where the
// count reaches the budget, counted by the scalar scan (refScan).
func (s *skylineStore) visitedEntries(q []float64, qc uint64, qMask point.Mask, budget int) int {
	visited, c := 0, 0
	var dts uint64
	for e := 0; e < s.msMask.Len() && c < budget; e++ {
		if !s.msMask.At(e).Subset(qMask) || s.skip && !point.CodeLE(s.msCode[e], qc, s.d) {
			continue
		}
		visited++
		lo, hi := s.msStart[e], s.msStart[e+1]
		if !s.level2 {
			c += s.refScan(lo, hi, q, nil, 0, budget-c, &dts)
			continue
		}
		m2 := point.ComputeMask(q, s.row(lo))
		if m2 == point.FullMask(s.d) {
			if point.Equals(s.row(lo), q) {
				continue
			}
			c++
		}
		c += s.refScan(lo+1, hi, q, &s.mask2, m2, budget-c, &dts)
	}
	return visited
}

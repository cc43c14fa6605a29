package point

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkKernels is the standing price of every unrolled body the
// package keeps, each beside its generic form, at the widths that have
// one (d ∈ {4, 6, 8}):
//
//   - pairwise: dominatesRow (behind DominatesFlat and the generic run
//     bodies) against the short-circuit reference Dominates;
//   - run: CountDominatorsInFlatRun at budget 1 (cntRun4/6/8) against
//     cntRunGeneric;
//   - masked: CountDominatorsInFlatRunMasked at budget 1 (cntRunM4/6/8)
//     against cntRunMGeneric, with every mask passing the filter so the
//     body, not the filter, is what is priced;
//   - first: AppendDominatorsMasked at budget 1 (domM4/6/8), the stream
//     index's probe, against domMGeneric, with every mask and every
//     norm passing its filter.
//
// Rows lie on the surface Σ = d/2, as an anticorrelated skyline does, and
// every probe is drawn from the same surface and kept only if no row
// dominates it, so every scan runs to its end and ns/row is the mean
// cost of one row tested.
func BenchmarkKernels(b *testing.B) {
	const n, probes = 1024, 32
	for _, d := range []int{4, 6, 8} {
		rng := rand.New(rand.NewSource(int64(d)))
		surface := func(dst []float64) {
			s := 0.0
			for i := range dst {
				dst[i] = rng.Float64()
				s += dst[i]
			}
			for i := range dst {
				dst[i] *= float64(d) / 2 / s
			}
		}
		rows := make([]float64, n*d)
		for j := 0; j < n; j++ {
			surface(rows[j*d : (j+1)*d])
		}
		qs := make([]float64, 0, probes*d)
		for len(qs) < cap(qs) {
			q := make([]float64, d)
			surface(q)
			var dts uint64
			if cntRunGeneric(rows, d, 0, n, q, 0, nil, nil, 1, &dts) == 0 {
				qs = append(qs, q...)
			}
		}
		pm := packMasks(d, make([]Mask, n)) // mask 0 ⊆ every probe mask
		l1 := make([]float64, n)            // norm 0 ≤ every probe norm

		kernels := []struct {
			name string
			scan func(q []float64, dts *uint64) int
		}{
			{"pairwise/dominatesRow", func(q []float64, dts *uint64) int {
				c := 0
				for off := 0; off < n*d; off += d {
					if dominatesRow(rows[off:off+d:off+d], q) {
						c++
					}
				}
				return c
			}},
			{"pairwise/Dominates", func(q []float64, dts *uint64) int {
				c := 0
				for off := 0; off < n*d; off += d {
					if Dominates(rows[off:off+d:off+d], q) {
						c++
					}
				}
				return c
			}},
			{"run/unrolled", func(q []float64, dts *uint64) int {
				return CountDominatorsInFlatRun(rows, d, 0, n, q, 0, nil, nil, 1, dts)
			}},
			{"run/generic", func(q []float64, dts *uint64) int {
				return cntRunGeneric(rows, d, 0, n, q, 0, nil, nil, 1, dts)
			}},
			{"masked/unrolled", func(q []float64, dts *uint64) int {
				return CountDominatorsInFlatRunMasked(rows, d, 0, n, q, pm, 0, 1, dts)
			}},
			{"masked/generic", func(q []float64, dts *uint64) int {
				return cntRunMGeneric(rows, d, 0, n, q, pm, 0, 1, dts)
			}},
			{"first/unrolled", func(q []float64, dts *uint64) int {
				return len(AppendDominatorsMasked(nil, rows, d, 0, n, q, 0, l1, pm, 0, 1, dts))
			}},
			{"first/generic", func(q []float64, dts *uint64) int {
				return len(domMGeneric(nil, rows, d, 0, n, q, 0, l1, pm, 0, 1, dts))
			}},
		}
		for _, k := range kernels {
			b.Run(fmt.Sprintf("d=%d/%s", d, k.name), func(b *testing.B) {
				var dts uint64
				for i := 0; i < b.N; i++ {
					for p := 0; p < probes; p++ {
						if k.scan(qs[p*d:(p+1)*d], &dts) != 0 {
							b.Fatal("probe dominated")
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes*n), "ns/row")
			})
		}
	}
}

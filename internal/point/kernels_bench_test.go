package point

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// BenchmarkKernels is the standing price of every unrolled body the
// package keeps, beside its generic form, and of the code-word pre-test
// (code.go) in front of each generic body, at d ∈ {4, 6, 8}:
//
//   - pairwise: dominatesRow (behind DominatesFlat and the generic run
//     bodies) against the short-circuit reference Dominates;
//   - run: CountDominatorsInFlatRun at budget 1 — the pre-filter's
//     call, without codes — unrolled (cntRunSC4 at d = 4, cntRunSC8 at
//     d = 8, both short-circuit) against cntRunGeneric; d = 6 has no
//     unrolled body, so only the generic rows run there;
//   - run-dominated: the same uncoded body and cntRunGeneric on probes
//     every row dominates, at a budget no scan reaches — the rows pass 1
//     of the pre-filter mostly tests on correlated data, where the
//     short-circuit body is meant to win;
//   - run/filtered: CountDominatorsInFlatRunCoded, flags and codes —
//     Phase II's partition run — with no flag set;
//   - masked: countMasked, the Go probe's partition scan, at budget 1
//     with codes and with codes of 0, which pass every row, with every mask passing the filter so the body,
//     not the filter, is what is priced;
//   - first: AppendDominatorsMasked at budget 1, the stream index's
//     probe, and dominated: AppendDominatedMasked, its demotion scan,
//     each with and without codes, with every mask and every norm
//     passing its filter.
//
// Rows lie on the surface Σ = d/2, as an anticorrelated skyline does, and
// every probe is drawn from the same surface and kept only if no row
// dominates it and it dominates no row, so every scan runs to its end
// and ns/row is the mean cost of one row tested. A run-dominated probe
// is the rows' componentwise maximum plus a random offset in each
// coordinate. The code words come
// from a quantizer fitted to the rows, as a run fits its own to the
// working set and the stream index its to the band.
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
			if cntRunGeneric(rows, d, 0, n, q, 1, &dts) == 0 && dominatedBrute(rows, d, q) == 0 {
				qs = append(qs, q...)
			}
		}
		top := make([]float64, d)
		for off := 0; off < n*d; off += d {
			for i := range top {
				top[i] = max(top[i], rows[off+i])
			}
		}
		under := make([]float64, probes*d)
		for i := range under {
			under[i] = top[i%d] + rng.Float64()
		}
		pm := packMasks(d, make([]Mask, n)) // masks 0 against probe mask 0: subset and superset
		l1 := make([]float64, n)            // norms 0 against probe norm 0: neither larger nor smaller
		flags := make([]uint32, n)          // no row flagged
		zeros := make([]uint64, n)          // code words that pass every probe
		z := fitQuantizer(rows, d, nil)
		codes := make([]uint64, n)
		for j := range codes {
			codes[j] = z.Code(rows[j*d : (j+1)*d])
		}

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
				return CountDominatorsInFlatRun(rows, d, 0, n, q, 1, dts)
			}},
			{"run/generic", func(q []float64, dts *uint64) int {
				return cntRunGeneric(rows, d, 0, n, q, 1, dts)
			}},
			{"run/filtered", func(q []float64, dts *uint64) int {
				return CountDominatorsInFlatRunCoded(rows, d, 0, n, q, flags, codes, z.Code(q), 1, dts)
			}},
			{"masked/generic", func(q []float64, dts *uint64) int {
				return countMasked(rows, d, 0, n, q, pm, 0, zeros, 0, 1, dts)
			}},
			{"masked/coded", func(q []float64, dts *uint64) int {
				return countMasked(rows, d, 0, n, q, pm, 0, codes, z.Code(q), 1, dts)
			}},
			{"first/generic", func(q []float64, dts *uint64) int {
				return len(AppendDominatorsMasked(nil, rows, d, 0, n, q, 0, l1, pm, 0, nil, 0, 1, dts))
			}},
			{"first/coded", func(q []float64, dts *uint64) int {
				return len(AppendDominatorsMasked(nil, rows, d, 0, n, q, 0, l1, pm, 0, codes, z.Code(q), 1, dts))
			}},
			{"dominated/generic", func(q []float64, dts *uint64) int {
				return len(AppendDominatedMasked(nil, rows, d, 0, n, q, 0, l1, pm, 0, nil, 0, dts))
			}},
			{"dominated/coded", func(q []float64, dts *uint64) int {
				return len(AppendDominatedMasked(nil, rows, d, 0, n, q, 0, l1, pm, 0, codes, z.Code(q), dts))
			}},
		}
		for _, k := range kernels {
			if !hasBody(d, k.name) {
				continue
			}
			b.Run(fmt.Sprintf("d=%d/%s", d, k.name), func(b *testing.B) {
				var dts uint64
				for i := 0; i < b.N; i++ {
					for p := 0; p < probes; p++ {
						if k.scan(qs[p*d:(p+1)*d], &dts) != 0 {
							b.Fatal("probe dominated or dominating")
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes*n), "ns/row")
			})
		}
		for _, k := range []struct {
			name string
			scan func(q []float64, dts *uint64) int
		}{
			{"run-dominated/unrolled", func(q []float64, dts *uint64) int {
				return CountDominatorsInFlatRun(rows, d, 0, n, q, n+1, dts)
			}},
			{"run-dominated/generic", func(q []float64, dts *uint64) int {
				return cntRunGeneric(rows, d, 0, n, q, n+1, dts)
			}},
		} {
			if !hasBody(d, k.name) {
				continue
			}
			b.Run(fmt.Sprintf("d=%d/%s", d, k.name), func(b *testing.B) {
				var dts uint64
				for i := 0; i < b.N; i++ {
					for p := 0; p < probes; p++ {
						if k.scan(under[p*d:(p+1)*d], &dts) != n {
							b.Fatal("probe not dominated by every row")
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes*n), "ns/row")
			})
		}
	}
}

// hasBody reports whether the uncoded run row name prices a body of its
// own at width d: "/unrolled" runs one at d = 4 and 8 only. Every other
// row runs at every width.
func hasBody(d int, name string) bool {
	return !strings.HasSuffix(name, "/unrolled") || d == 4 || d == 8
}

// dominatedBrute counts the rows of the row-major matrix rows that q
// strictly dominates.
func dominatedBrute(rows []float64, d int, q []float64) int {
	c := 0
	for off := 0; off < len(rows); off += d {
		if Dominates(q, rows[off:off+d]) {
			c++
		}
	}
	return c
}

package point

// Flat dominance kernels: offset-based entry points that index row-major
// matrix storage directly instead of materializing per-row slice headers,
// all on one pairwise test, dominatesRow. The loop-level "run" kernels
// that test one probe against a contiguous run of rows are the counting
// family in count.go plus the stream index's two masked scans here, one
// generic body each behind the code-word pre-test (code.go). The
// paper's C++ implementation gets its constant factors from AVX kernels
// over contiguous blocks (Section IV); these kernels are the Go analogue
// and are what the hot paths of Hybrid, Q-Flow and the stream index
// call.

// DominatesFlat reports strict dominance between two rows of the same flat
// row-major storage: vals[pOff:pOff+d] ≺ vals[qOff:qOff+d].
func DominatesFlat(vals []float64, pOff, qOff, d int) bool {
	return dominatesRow(vals[pOff:pOff+d:pOff+d], vals[qOff:qOff+d:qOff+d])
}

// EqualsFlat2 reports coincidence of p[pOff:pOff+d] and q[qOff:qOff+d].
func EqualsFlat2(p []float64, pOff int, q []float64, qOff, d int) bool {
	return Equals(p[pOff:pOff+d:pOff+d], q[qOff:qOff+d:qOff+d])
}

// b2u is the bool → {0, 1} idiom the compiler lowers to a flag-set
// instruction. The run kernels OR one "row is worse here" bit per
// dimension and branch once on the result: on the incomparable rows that
// make up most of every scan, a short-circuit chain exits at a
// data-dependent dimension and mispredicts, which costs more than
// finishing the d compares. Branch-free is not always the faster form:
// on rows that mostly dominate the probe, as in the pre-filter's pass 1
// on correlated data, the chain runs to its end and predicts well, and
// it beats the d flag-sets (CountDominatorsInFlatRunShortCircuit).
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// dominatesRow is the pairwise dominance test r ≺ q behind DominatesFlat,
// the stream's two scans, every coded run kernel (behind the code-word
// pre-test) and the uncoded counting widths without an unrolled body,
// in the unrolled bodies' two halves: "worse anywhere" branch-free,
// then "better somewhere" short-circuit, which only the few rows that
// pass the first half reach.
func dominatesRow(r, q []float64) bool {
	q = q[:len(r)]
	var worse uint8
	for k, v := range r {
		worse |= b2u(v > q[k])
	}
	if worse != 0 {
		return false
	}
	for k, v := range r {
		if v < q[k] {
			return true
		}
	}
	return false
}

// AppendDominatorsMasked appends to dst the positions j ∈ [lo, hi) of
// the first budget rows (budget ≥ 1) of the row-major flat matrix rows
// that strictly dominate the probe q, in ascending order, and returns
// the extended slice. It is the stream index's probe of its band: at
// budget 1 the one dominator a dominated point is filed under, at
// budget k the k a k-skyband registers it under. Two exact filters pass
// over a row before the dominance test. masks[j] ⊆ qm is the partition
// rule of Section VI-A2, true of a dominator for any constant pivot and
// asked a word of masks at a time (PackedMasks.subsets). l1[j] > qL1 is
// footnote 2 of the paper in float arithmetic: a dominator is
// componentwise no worse and rounded addition is monotone, so its
// computed norm is no larger. Neither filter drops a dominator, so the
// positions are those of an unfiltered scan; *dts is advanced by the
// dominance tests actually performed. codes and qc are the code-word
// pre-test of CountDominatorsInFlatRunCoded, asked of a row after it is
// counted as a test; nil codes asks none.
func AppendDominatorsMasked(dst []int32, rows []float64, d, lo, hi int, q []float64, qL1 float64, l1 []float64, pm *PackedMasks, qm Mask, codes []uint64, qc uint64, budget int, dts *uint64) []int32 {
	h := codeGuardsFor(codes, d)
	qg := qc | h
	n := *dts
	end := len(dst) + budget
	probe, sp := pm.probe(qm), pm.span(lo, hi)
scan:
	for wi := sp.first; wi <= sp.last; wi++ {
		for z := sp.clip(wi, pm.subsets(wi, probe)); z != 0; z &= z - 1 {
			j := pm.row(wi, z)
			if l1[j] > qL1 {
				continue
			}
			n++
			if codes != nil && !codeLE(codes[j], qg, h) {
				continue
			}
			off := j * d
			if dominatesRow(rows[off:off+d:off+d], q) {
				if dst = append(dst, int32(j)); len(dst) == end {
					break scan
				}
			}
		}
	}
	*dts = n
	return dst
}

// AppendDominatedMasked appends to dst the positions j ∈ [lo, hi) of
// every row the probe q strictly dominates, in ascending order: the
// rows whose dominator count a point entering or leaving the band
// changes. Its filters are AppendDominatorsMasked's with the roles
// swapped — masks[j] ⊇ qm (PackedMasks.supersets), l1[j] ≥ qL1 and the
// probe's code word no larger than the row's in any lane — and equally
// exact.
func AppendDominatedMasked(dst []int32, rows []float64, d, lo, hi int, q []float64, qL1 float64, l1 []float64, pm *PackedMasks, qm Mask, codes []uint64, qc uint64, dts *uint64) []int32 {
	h := codeGuardsFor(codes, d)
	n := *dts
	probe, sp := pm.probe(qm), pm.span(lo, hi)
	for wi := sp.first; wi <= sp.last; wi++ {
		for z := sp.clip(wi, pm.supersets(wi, probe)); z != 0; z &= z - 1 {
			j := pm.row(wi, z)
			if l1[j] < qL1 {
				continue
			}
			n++
			if codes != nil && !codeLE(qc, codes[j]|h, h) {
				continue
			}
			off := j * d
			if dominatesRow(q, rows[off:off+d:off+d]) {
				dst = append(dst, int32(j))
			}
		}
	}
	*dts = n
	return dst
}

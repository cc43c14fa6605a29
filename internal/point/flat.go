package point

// Flat dominance kernels: offset-based entry points that index row-major
// matrix storage directly instead of materializing per-row slice headers,
// all on one pairwise test, dominatesRow. The loop-level "run" kernels
// that test one probe against a contiguous run of rows are the counting
// family in count.go plus the stream index's two masked scans here. The
// paper's C++ implementation gets its constant factors from AVX kernels
// over contiguous blocks (Section IV); these kernels are the Go analogue
// and are what the hot paths of Hybrid, Q-Flow and the stream index
// call.

// DominatesFlat reports strict dominance between two rows of the same flat
// row-major storage: vals[pOff:pOff+d] ≺ vals[qOff:qOff+d].
func DominatesFlat(vals []float64, pOff, qOff, d int) bool {
	return dominatesRow(vals[pOff:pOff+d:pOff+d], vals[qOff:qOff+d:qOff+d])
}

// DominatesFlat2 is DominatesFlat across two different flat storages:
// p[pOff:pOff+d] ≺ q[qOff:qOff+d].
func DominatesFlat2(p []float64, pOff int, q []float64, qOff, d int) bool {
	return dominatesRow(p[pOff:pOff+d:pOff+d], q[qOff:qOff+d:qOff+d])
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
// finishing the d compares.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// dominatesRow is the pairwise dominance test r ≺ q behind DominatesFlat
// and the run kernels' widths without an unrolled body, in the unrolled
// bodies' two halves: "worse anywhere" branch-free, then "better
// somewhere" short-circuit, which only the few rows that pass the first
// half reach.
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
// dominance tests actually performed.
func AppendDominatorsMasked(dst []int32, rows []float64, d, lo, hi int, q []float64, qL1 float64, l1 []float64, masks *PackedMasks, qm Mask, budget int, dts *uint64) []int32 {
	switch d {
	case 4:
		return domM4(dst, rows, lo, hi, q, qL1, l1, masks, qm, budget, dts)
	case 6:
		return domM6(dst, rows, lo, hi, q, qL1, l1, masks, qm, budget, dts)
	case 8:
		return domM8(dst, rows, lo, hi, q, qL1, l1, masks, qm, budget, dts)
	default:
		return domMGeneric(dst, rows, d, lo, hi, q, qL1, l1, masks, qm, budget, dts)
	}
}

func domMGeneric(dst []int32, rows []float64, d, lo, hi int, q []float64, qL1 float64, l1 []float64, pm *PackedMasks, qm Mask, budget int, dts *uint64) []int32 {
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

func domM4(dst []int32, rows []float64, lo, hi int, q []float64, qL1 float64, l1 []float64, pm *PackedMasks, qm Mask, budget int, dts *uint64) []int32 {
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
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
			off := j * 4
			r := rows[off : off+4 : off+4]
			if b2u(r[0] > q0)|b2u(r[1] > q1)|b2u(r[2] > q2)|b2u(r[3] > q3) != 0 {
				continue
			}
			if r[0] < q0 || r[1] < q1 || r[2] < q2 || r[3] < q3 {
				if dst = append(dst, int32(j)); len(dst) == end {
					break scan
				}
			}
		}
	}
	*dts = n
	return dst
}

func domM6(dst []int32, rows []float64, lo, hi int, q []float64, qL1 float64, l1 []float64, pm *PackedMasks, qm Mask, budget int, dts *uint64) []int32 {
	q0, q1, q2, q3, q4, q5 := q[0], q[1], q[2], q[3], q[4], q[5]
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
			off := j * 6
			r := rows[off : off+6 : off+6]
			if b2u(r[0] > q0)|b2u(r[1] > q1)|b2u(r[2] > q2)|b2u(r[3] > q3)|b2u(r[4] > q4)|b2u(r[5] > q5) != 0 {
				continue
			}
			if r[0] < q0 || r[1] < q1 || r[2] < q2 || r[3] < q3 || r[4] < q4 || r[5] < q5 {
				if dst = append(dst, int32(j)); len(dst) == end {
					break scan
				}
			}
		}
	}
	*dts = n
	return dst
}

func domM8(dst []int32, rows []float64, lo, hi int, q []float64, qL1 float64, l1 []float64, pm *PackedMasks, qm Mask, budget int, dts *uint64) []int32 {
	q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
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
			off := j * 8
			r := rows[off : off+8 : off+8]
			if b2u(r[0] > q0)|b2u(r[1] > q1)|b2u(r[2] > q2)|b2u(r[3] > q3)|
				b2u(r[4] > q4)|b2u(r[5] > q5)|b2u(r[6] > q6)|b2u(r[7] > q7) != 0 {
				continue
			}
			if r[0] < q0 || r[1] < q1 || r[2] < q2 || r[3] < q3 ||
				r[4] < q4 || r[5] < q5 || r[6] < q6 || r[7] < q7 {
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
// swapped — masks[j] ⊇ qm (PackedMasks.supersets) and l1[j] ≥ qL1 — and
// equally exact.
func AppendDominatedMasked(dst []int32, rows []float64, d, lo, hi int, q []float64, qL1 float64, l1 []float64, pm *PackedMasks, qm Mask, dts *uint64) []int32 {
	n := *dts
	probe, sp := pm.probe(qm), pm.span(lo, hi)
	for wi := sp.first; wi <= sp.last; wi++ {
		for z := sp.clip(wi, pm.supersets(wi, probe)); z != 0; z &= z - 1 {
			j := pm.row(wi, z)
			if l1[j] < qL1 {
				continue
			}
			n++
			off := j * d
			if dominatesRow(q, rows[off:off+d:off+d]) {
				dst = append(dst, int32(j))
			}
		}
	}
	*dts = n
	return dst
}

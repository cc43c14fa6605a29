package point

import "sync/atomic"

// Counting dominance kernels: the one family of run kernels behind every
// skyline and k-skyband scan. Each answers "by how many rows is the probe
// dominated, up to a budget": it accumulates the probe's dominator count
// and stops as soon as the count reaches the caller's budget, because a
// k-skyband algorithm only ever needs to know whether a point has reached
// k dominators, never the exact excess. The skyline is the 1-skyband, so
// "is the probe dominated at all" is the same call at budget 1, which
// stops on the first dominator.

// CountDominatorsInFlatRun counts the rows j ∈ [lo, hi) of the
// row-major flat matrix rows (d columns per row) that strictly dominate
// the probe q (length d), stopping early once the count reaches budget
// (which must be ≥ 1); the return value is min(true count, budget).
// Two optional per-row filters are applied before a dominance test: when
// l1 is non-nil, rows with l1[j] == qL1 are skipped (equal L1 norms
// preclude dominance, footnote 2 of the paper); when skip is non-nil,
// rows with a nonzero skip[j] are passed over, read with atomic loads so
// concurrent phase workers may set flags mid-scan. *dts is advanced by
// the number of dominance tests actually performed.
func CountDominatorsInFlatRun(rows []float64, d, lo, hi int, q []float64, qL1 float64, l1 []float64, skip []uint32, budget int, dts *uint64) int {
	switch d {
	case 4:
		return cntRun4(rows, lo, hi, q, qL1, l1, skip, budget, dts)
	case 6:
		return cntRun6(rows, lo, hi, q, qL1, l1, skip, budget, dts)
	case 8:
		return cntRun8(rows, lo, hi, q, qL1, l1, skip, budget, dts)
	default:
		return cntRunGeneric(rows, d, lo, hi, q, qL1, l1, skip, budget, dts)
	}
}

func cntRunGeneric(rows []float64, d, lo, hi int, q []float64, qL1 float64, l1 []float64, skip []uint32, budget int, dts *uint64) int {
	n := *dts
	c := 0
	off := lo * d
	for j := lo; j < hi; j, off = j+1, off+d {
		if skip != nil && atomic.LoadUint32(&skip[j]) != 0 {
			continue
		}
		if l1 != nil && l1[j] == qL1 {
			continue
		}
		n++
		if dominatesRow(rows[off:off+d:off+d], q) {
			c++
			if c >= budget {
				break
			}
		}
	}
	*dts = n
	return c
}

func cntRun4(rows []float64, lo, hi int, q []float64, qL1 float64, l1 []float64, skip []uint32, budget int, dts *uint64) int {
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	n := *dts
	c := 0
	off := lo * 4
	for j := lo; j < hi; j, off = j+1, off+4 {
		if skip != nil && atomic.LoadUint32(&skip[j]) != 0 {
			continue
		}
		if l1 != nil && l1[j] == qL1 {
			continue
		}
		n++
		r := rows[off : off+4 : off+4]
		if b2u(r[0] > q0)|b2u(r[1] > q1)|b2u(r[2] > q2)|b2u(r[3] > q3) != 0 {
			continue
		}
		if r[0] < q0 || r[1] < q1 || r[2] < q2 || r[3] < q3 {
			c++
			if c >= budget {
				break
			}
		}
	}
	*dts = n
	return c
}

func cntRun6(rows []float64, lo, hi int, q []float64, qL1 float64, l1 []float64, skip []uint32, budget int, dts *uint64) int {
	q0, q1, q2, q3, q4, q5 := q[0], q[1], q[2], q[3], q[4], q[5]
	n := *dts
	c := 0
	off := lo * 6
	for j := lo; j < hi; j, off = j+1, off+6 {
		if skip != nil && atomic.LoadUint32(&skip[j]) != 0 {
			continue
		}
		if l1 != nil && l1[j] == qL1 {
			continue
		}
		n++
		r := rows[off : off+6 : off+6]
		if b2u(r[0] > q0)|b2u(r[1] > q1)|b2u(r[2] > q2)|b2u(r[3] > q3)|b2u(r[4] > q4)|b2u(r[5] > q5) != 0 {
			continue
		}
		if r[0] < q0 || r[1] < q1 || r[2] < q2 || r[3] < q3 || r[4] < q4 || r[5] < q5 {
			c++
			if c >= budget {
				break
			}
		}
	}
	*dts = n
	return c
}

func cntRun8(rows []float64, lo, hi int, q []float64, qL1 float64, l1 []float64, skip []uint32, budget int, dts *uint64) int {
	q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
	n := *dts
	c := 0
	off := lo * 8
	for j := lo; j < hi; j, off = j+1, off+8 {
		if skip != nil && atomic.LoadUint32(&skip[j]) != 0 {
			continue
		}
		if l1 != nil && l1[j] == qL1 {
			continue
		}
		n++
		r := rows[off : off+8 : off+8]
		if b2u(r[0] > q0)|b2u(r[1] > q1)|b2u(r[2] > q2)|b2u(r[3] > q3)|
			b2u(r[4] > q4)|b2u(r[5] > q5)|b2u(r[6] > q6)|b2u(r[7] > q7) != 0 {
			continue
		}
		if r[0] < q0 || r[1] < q1 || r[2] < q2 || r[3] < q3 ||
			r[4] < q4 || r[5] < q5 || r[6] < q6 || r[7] < q7 {
			c++
			if c >= budget {
				break
			}
		}
	}
	*dts = n
	return c
}

// CountDominatorsInFlatRunMasked is CountDominatorsInFlatRun behind the
// partition-mask filter of Section VI-A2: row j ∈ [lo, hi) is
// dominance-tested only when masks[j] ⊆ qm, and the filter runs a word
// of masks at a time (PackedMasks.subsets) with the candidate rows taken
// in ascending order, so the count, the row the budget is reached on and
// *dts are those of a row-by-row scan. It is the one kernel behind every
// M(S) partition scan and the no-M(S) ablation, skyline (budget 1) and
// k-skyband alike; most rows fail the filter, and those cost no branch.
func CountDominatorsInFlatRunMasked(rows []float64, d, lo, hi int, q []float64, masks *PackedMasks, qm Mask, budget int, dts *uint64) int {
	switch d {
	case 4:
		return cntRunM4(rows, lo, hi, q, masks, qm, budget, dts)
	case 6:
		return cntRunM6(rows, lo, hi, q, masks, qm, budget, dts)
	case 8:
		return cntRunM8(rows, lo, hi, q, masks, qm, budget, dts)
	default:
		return cntRunMGeneric(rows, d, lo, hi, q, masks, qm, budget, dts)
	}
}

func cntRunMGeneric(rows []float64, d, lo, hi int, q []float64, pm *PackedMasks, qm Mask, budget int, dts *uint64) int {
	n := *dts
	c := 0
	probe, sp := pm.probe(qm), pm.span(lo, hi)
scan:
	for wi := sp.first; wi <= sp.last; wi++ {
		for z := sp.clip(wi, pm.subsets(wi, probe)); z != 0; z &= z - 1 {
			off := pm.row(wi, z) * d
			n++
			if dominatesRow(rows[off:off+d:off+d], q) {
				c++
				if c >= budget {
					break scan
				}
			}
		}
	}
	*dts = n
	return c
}

func cntRunM4(rows []float64, lo, hi int, q []float64, pm *PackedMasks, qm Mask, budget int, dts *uint64) int {
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	n := *dts
	c := 0
	probe, sp := pm.probe(qm), pm.span(lo, hi)
scan:
	for wi := sp.first; wi <= sp.last; wi++ {
		for z := sp.clip(wi, pm.subsets(wi, probe)); z != 0; z &= z - 1 {
			off := pm.row(wi, z) * 4
			n++
			r := rows[off : off+4 : off+4]
			if b2u(r[0] > q0)|b2u(r[1] > q1)|b2u(r[2] > q2)|b2u(r[3] > q3) != 0 {
				continue
			}
			if r[0] < q0 || r[1] < q1 || r[2] < q2 || r[3] < q3 {
				c++
				if c >= budget {
					break scan
				}
			}
		}
	}
	*dts = n
	return c
}

func cntRunM6(rows []float64, lo, hi int, q []float64, pm *PackedMasks, qm Mask, budget int, dts *uint64) int {
	q0, q1, q2, q3, q4, q5 := q[0], q[1], q[2], q[3], q[4], q[5]
	n := *dts
	c := 0
	probe, sp := pm.probe(qm), pm.span(lo, hi)
scan:
	for wi := sp.first; wi <= sp.last; wi++ {
		for z := sp.clip(wi, pm.subsets(wi, probe)); z != 0; z &= z - 1 {
			off := pm.row(wi, z) * 6
			n++
			r := rows[off : off+6 : off+6]
			if b2u(r[0] > q0)|b2u(r[1] > q1)|b2u(r[2] > q2)|b2u(r[3] > q3)|b2u(r[4] > q4)|b2u(r[5] > q5) != 0 {
				continue
			}
			if r[0] < q0 || r[1] < q1 || r[2] < q2 || r[3] < q3 || r[4] < q4 || r[5] < q5 {
				c++
				if c >= budget {
					break scan
				}
			}
		}
	}
	*dts = n
	return c
}

func cntRunM8(rows []float64, lo, hi int, q []float64, pm *PackedMasks, qm Mask, budget int, dts *uint64) int {
	q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
	n := *dts
	c := 0
	probe, sp := pm.probe(qm), pm.span(lo, hi)
scan:
	for wi := sp.first; wi <= sp.last; wi++ {
		for z := sp.clip(wi, pm.subsets(wi, probe)); z != 0; z &= z - 1 {
			off := pm.row(wi, z) * 8
			n++
			r := rows[off : off+8 : off+8]
			if b2u(r[0] > q0)|b2u(r[1] > q1)|b2u(r[2] > q2)|b2u(r[3] > q3)|
				b2u(r[4] > q4)|b2u(r[5] > q5)|b2u(r[6] > q6)|b2u(r[7] > q7) != 0 {
				continue
			}
			if r[0] < q0 || r[1] < q1 || r[2] < q2 || r[3] < q3 ||
				r[4] < q4 || r[5] < q5 || r[6] < q6 || r[7] < q7 {
				c++
				if c >= budget {
					break scan
				}
			}
		}
	}
	*dts = n
	return c
}

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
// Every row in the window is tested, and *dts is advanced by the number
// of dominance tests performed. It is the kernel of the one caller that
// holds no code words and filters no rows, the pre-filter; the Engine's
// phases call CountDominatorsInFlatRunCoded.
//
// Its unrolled bodies (d ∈ {4, 6, 8}) ask "row worse anywhere"
// branch-free (b2u), the faster form when most tested rows are
// incomparable with the probe. CountDominatorsInFlatRunShortCircuit
// asks it as a short-circuit chain instead at d ∈ {4, 8}, the faster
// form when most tested rows dominate the probe.
func CountDominatorsInFlatRun(rows []float64, d, lo, hi int, q []float64, budget int, dts *uint64) int {
	switch d {
	case 4:
		return cntRun4(rows, lo, hi, q, budget, dts)
	case 6:
		return cntRun6(rows, lo, hi, q, budget, dts)
	case 8:
		return cntRun8(rows, lo, hi, q, budget, dts)
	default:
		return cntRunGeneric(rows, d, lo, hi, q, nil, nil, 0, budget, dts)
	}
}

// CountDominatorsInFlatRunShortCircuit is CountDominatorsInFlatRun with
// the "row worse anywhere" half of the test as a short-circuit chain.
// A row that dominates the probe is no worse in every dimension, so the
// chain runs to its end and predicts well when most tested rows do; on
// incomparable rows it exits at a data-dependent dimension and
// mispredicts (b2u). Both bodies ask the same tests in the same order,
// so the count and *dts are CountDominatorsInFlatRun's. Only d = 4 and
// d = 8, the pre-filter widths of the benchmarked batch workloads, have a
// short-circuit body; every other width runs CountDominatorsInFlatRun's.
// The pre-filter's pass 1 calls it.
func CountDominatorsInFlatRunShortCircuit(rows []float64, d, lo, hi int, q []float64, budget int, dts *uint64) int {
	switch d {
	case 4:
		return cntRunSC4(rows, lo, hi, q, budget, dts)
	case 8:
		return cntRunSC8(rows, lo, hi, q, budget, dts)
	default:
		return CountDominatorsInFlatRun(rows, d, lo, hi, q, budget, dts)
	}
}

// CountDominatorsInFlatRunCoded is CountDominatorsInFlatRun behind an
// optional flag filter and the code-word pre-test (code.go). When skip is
// non-nil, rows with a nonzero skip[j] are passed over, read with atomic
// loads so concurrent phase workers may set flags mid-scan. codes holds
// the rows' code words and qc the probe's, both from one Quantizer, and
// a tested row whose code word is larger than qc in some lane is
// rejected without its float test. It is still counted as a dominance
// test, so the count and *dts are those of the uncoded scan. No row is
// skipped for its L1 norm: computed norms can tie while one row
// dominates the other (DESIGN.md §9, "Numeric precondition").
//
// The loop body follows from the arguments. With both skip and codes
// present — Phase II's partition run (loop 3, Hybrid's and Q-Flow's) and
// its no-split ablation — it is cntRunFiltered, which tests no nil slice
// per row. Every other caller — Phase I's partition scan with level 2
// off (no skip: Q-Flow and the NoLevel2 ablation) and the uncoded
// CountDominatorsInFlatRun at widths with no unrolled body — gets
// cntRunGeneric. Both ask the same tests in the same order.
func CountDominatorsInFlatRunCoded(rows []float64, d, lo, hi int, q []float64, skip []uint32, codes []uint64, qc uint64, budget int, dts *uint64) int {
	if skip != nil && codes != nil {
		return cntRunFiltered(rows, d, lo, hi, q, skip, codes, qc, budget, dts)
	}
	return cntRunGeneric(rows, d, lo, hi, q, skip, codes, qc, budget, dts)
}

// cntRunFiltered is cntRunGeneric with both filters present: a row is
// passed over when its flag is set, and a tested row is rejected on its
// code word before its float test.
func cntRunFiltered(rows []float64, d, lo, hi int, q []float64, skip []uint32, codes []uint64, qc uint64, budget int, dts *uint64) int {
	h := codeGuards[d]
	qg := qc | h
	n := *dts
	c := 0
	// One length for both columns lets the compiler drop the per-row
	// bounds checks after the first.
	skip, codes = skip[:hi], codes[:hi]
	off := lo * d
	for j := lo; j < hi; j, off = j+1, off+d {
		if atomic.LoadUint32(&skip[j]) != 0 {
			continue
		}
		n++
		if !codeLE(codes[j], qg, h) {
			continue
		}
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

func cntRunGeneric(rows []float64, d, lo, hi int, q []float64, skip []uint32, codes []uint64, qc uint64, budget int, dts *uint64) int {
	h := codeGuards[d]
	qg := qc | h
	n := *dts
	c := 0
	off := lo * d
	for j := lo; j < hi; j, off = j+1, off+d {
		if skip != nil && atomic.LoadUint32(&skip[j]) != 0 {
			continue
		}
		n++
		if codes != nil && !codeLE(codes[j], qg, h) {
			continue
		}
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

func cntRun4(rows []float64, lo, hi int, q []float64, budget int, dts *uint64) int {
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	n := *dts
	c := 0
	off := lo * 4
	for j := lo; j < hi; j, off = j+1, off+4 {
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

func cntRun6(rows []float64, lo, hi int, q []float64, budget int, dts *uint64) int {
	q0, q1, q2, q3, q4, q5 := q[0], q[1], q[2], q[3], q[4], q[5]
	n := *dts
	c := 0
	off := lo * 6
	for j := lo; j < hi; j, off = j+1, off+6 {
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

func cntRun8(rows []float64, lo, hi int, q []float64, budget int, dts *uint64) int {
	q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
	n := *dts
	c := 0
	off := lo * 8
	for j := lo; j < hi; j, off = j+1, off+8 {
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

func cntRunSC4(rows []float64, lo, hi int, q []float64, budget int, dts *uint64) int {
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	n := *dts
	c := 0
	off := lo * 4
	for j := lo; j < hi; j, off = j+1, off+4 {
		n++
		r := rows[off : off+4 : off+4]
		if r[0] > q0 || r[1] > q1 || r[2] > q2 || r[3] > q3 {
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

func cntRunSC8(rows []float64, lo, hi int, q []float64, budget int, dts *uint64) int {
	q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
	n := *dts
	c := 0
	off := lo * 8
	for j := lo; j < hi; j, off = j+1, off+8 {
		n++
		r := rows[off : off+8 : off+8]
		if r[0] > q0 || r[1] > q1 || r[2] > q2 || r[3] > q3 ||
			r[4] > q4 || r[5] > q5 || r[6] > q6 || r[7] > q7 {
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
// codes and qc are CountDominatorsInFlatRun's code-word pre-test, asked
// of a row that passed the mask filter and was counted as a test.
func CountDominatorsInFlatRunMasked(rows []float64, d, lo, hi int, q []float64, pm *PackedMasks, qm Mask, codes []uint64, qc uint64, budget int, dts *uint64) int {
	h := codeGuards[d]
	qg := qc | h
	n := *dts
	c := 0
	probe, sp := pm.probe(qm), pm.span(lo, hi)
scan:
	for wi := sp.first; wi <= sp.last; wi++ {
		for z := sp.clip(wi, pm.subsets(wi, probe)); z != 0; z &= z - 1 {
			j := pm.row(wi, z)
			n++
			if codes != nil && !codeLE(codes[j], qg, h) {
				continue
			}
			off := j * d
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

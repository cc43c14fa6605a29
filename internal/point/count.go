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
// holds no code words and filters no rows, the pre-filter's Go bodies
// (Queue.Scan, Union.Count); the Engine's Phase I calls ProbeDirectory
// and its Phase II CountDominatorsInFlatRunCoded.
//
// Two widths have an unrolled body, the pre-filter widths of the
// benchmarked batch workloads, both asking "row worse anywhere" as a
// short-circuit chain: a row that dominates the probe is no worse in
// every dimension, so the chain runs to its end and predicts well where
// most tested rows do, as in the pre-filter's pass 1 on correlated
// data, which is where the pre-filter is most of the run (DESIGN.md
// §2). Every other width runs the generic body, which asks the same
// tests in the same order.
func CountDominatorsInFlatRun(rows []float64, d, lo, hi int, q []float64, budget int, dts *uint64) int {
	switch d {
	case 4:
		return cntRunSC4(rows, lo, hi, q, budget, dts)
	case 8:
		return cntRunSC8(rows, lo, hi, q, budget, dts)
	default:
		return cntRunGeneric(rows, d, lo, hi, q, budget, dts)
	}
}

// CountDominatorsInFlatRunCoded is CountDominatorsInFlatRun behind a
// flag filter and the code-word pre-test (code.go): it is Phase II's
// flagged partition run (loop 3, Hybrid's and Q-Flow's) and its no-split
// ablation. Rows with a nonzero skip[j] are passed over, read with
// atomic loads so concurrent phase workers may set flags mid-scan.
// codes holds the rows' code words and qc the probe's, both from one
// Quantizer, and a tested row whose code word is larger than qc in some
// lane is rejected without its float test. It is still counted as a
// dominance test, so the count and *dts are those of the uncoded scan.
// No row is skipped for its L1 norm: computed norms can tie while one
// row dominates the other (DESIGN.md §9, "Numeric precondition").
func CountDominatorsInFlatRunCoded(rows []float64, d, lo, hi int, q []float64, skip []uint32, codes []uint64, qc uint64, budget int, dts *uint64) int {
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

// cntRunGeneric is CountDominatorsInFlatRun at a width with no unrolled
// body.
func cntRunGeneric(rows []float64, d, lo, hi int, q []float64, budget int, dts *uint64) int {
	n := *dts
	c := 0
	off := lo * d
	for j := lo; j < hi; j, off = j+1, off+d {
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

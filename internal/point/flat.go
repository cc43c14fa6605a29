package point

import "sync/atomic"

// Flat dominance kernels: offset-based entry points that index row-major
// matrix storage directly instead of materializing per-row slice headers,
// plus loop-level "run" kernels that test one probe point against a
// contiguous run of rows with the probe's coordinates hoisted out of the
// loop. The paper's C++ implementation gets its constant factors from AVX
// kernels over contiguous blocks (Section IV); these kernels are the Go
// analogue and are what the hot paths of Hybrid and Q-Flow call.

// DominatesFlat reports strict dominance between two rows of the same flat
// row-major storage: vals[pOff:pOff+d] ≺ vals[qOff:qOff+d].
func DominatesFlat(vals []float64, pOff, qOff, d int) bool {
	return DominatesD(vals[pOff:pOff+d:pOff+d], vals[qOff:qOff+d:qOff+d], d)
}

// DominatesFlat2 is DominatesFlat across two different flat storages:
// p[pOff:pOff+d] ≺ q[qOff:qOff+d].
func DominatesFlat2(p []float64, pOff int, q []float64, qOff, d int) bool {
	return DominatesD(p[pOff:pOff+d:pOff+d], q[qOff:qOff+d:qOff+d], d)
}

// EqualsFlat2 reports coincidence of p[pOff:pOff+d] and q[qOff:qOff+d].
func EqualsFlat2(p []float64, pOff int, q []float64, qOff, d int) bool {
	return Equals(p[pOff:pOff+d:pOff+d], q[qOff:qOff+d:qOff+d])
}

// DominatedInFlatRun reports whether any row j ∈ [lo, hi) of the row-major
// flat matrix rows (d columns per row) strictly dominates the probe q
// (length d). Two optional per-row filters are applied before a dominance
// test: when l1 is non-nil, rows with l1[j] == qL1 are skipped (equal L1
// norms preclude dominance, footnote 2 of the paper); when skip is
// non-nil, rows with a nonzero skip[j] are passed over — skip is read with
// atomic loads so Phase II workers may concurrently set flags. *dts is
// advanced by the number of dominance tests actually performed.
//
// The specialized variants hoist q's coordinates into locals so the inner
// loop re-reads only the candidate row — the analogue of keeping the probe
// point in vector registers in the paper's AVX kernels.
func DominatedInFlatRun(rows []float64, d, lo, hi int, q []float64, qL1 float64, l1 []float64, skip []uint32, dts *uint64) bool {
	switch d {
	case 4:
		return domRun4(rows, lo, hi, q, qL1, l1, skip, dts)
	case 6:
		return domRun6(rows, lo, hi, q, qL1, l1, skip, dts)
	case 8:
		return domRun8(rows, lo, hi, q, qL1, l1, skip, dts)
	case 10:
		return domRun10(rows, lo, hi, q, qL1, l1, skip, dts)
	case 12:
		return domRun12(rows, lo, hi, q, qL1, l1, skip, dts)
	case 16:
		return domRun16(rows, lo, hi, q, qL1, l1, skip, dts)
	default:
		return domRunGeneric(rows, d, lo, hi, q, qL1, l1, skip, dts)
	}
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

// dominatesRow is the run kernels' dominance test at the widths without
// an unrolled body, in the same two halves: "worse anywhere" branch-free,
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

// FirstDominatorInFlatRun returns the index j ∈ [lo, hi) of the first row
// of the row-major flat matrix rows that strictly dominates the probe q,
// or -1 when no row does. It is the bucket-assignment companion of
// DominatedInFlatRun: incremental maintenance needs not just whether a
// probe is dominated but by whom, so the dominated point can be filed
// under that skyline point's exclusive-dominance bucket.
//
// l1, when non-nil, holds the L1 norm of every row and prunes rows with
// l1[j] >= qL1 before the dominance test: a dominator is componentwise no
// worse and strictly better somewhere, so its L1 norm is strictly smaller
// (footnote 2 of the paper). *dts is advanced by the number of dominance
// tests actually performed.
func FirstDominatorInFlatRun(rows []float64, d, lo, hi int, q []float64, qL1 float64, l1 []float64, dts *uint64) int {
	switch d {
	case 4:
		return firstDom4(rows, lo, hi, q, qL1, l1, dts)
	case 6:
		return firstDom6(rows, lo, hi, q, qL1, l1, dts)
	case 8:
		return firstDom8(rows, lo, hi, q, qL1, l1, dts)
	default:
		return firstDomGeneric(rows, d, lo, hi, q, qL1, l1, dts)
	}
}

func firstDomGeneric(rows []float64, d, lo, hi int, q []float64, qL1 float64, l1 []float64, dts *uint64) int {
	n := *dts
	off := lo * d
	for j := lo; j < hi; j, off = j+1, off+d {
		if l1 != nil && l1[j] >= qL1 {
			continue
		}
		n++
		if dominatesRow(rows[off:off+d:off+d], q) {
			*dts = n
			return j
		}
	}
	*dts = n
	return -1
}

func firstDom4(rows []float64, lo, hi int, q []float64, qL1 float64, l1 []float64, dts *uint64) int {
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	n := *dts
	off := lo * 4
	for j := lo; j < hi; j, off = j+1, off+4 {
		if l1 != nil && l1[j] >= qL1 {
			continue
		}
		n++
		r := rows[off : off+4 : off+4]
		if b2u(r[0] > q0)|b2u(r[1] > q1)|b2u(r[2] > q2)|b2u(r[3] > q3) != 0 {
			continue
		}
		if r[0] < q0 || r[1] < q1 || r[2] < q2 || r[3] < q3 {
			*dts = n
			return j
		}
	}
	*dts = n
	return -1
}

func firstDom6(rows []float64, lo, hi int, q []float64, qL1 float64, l1 []float64, dts *uint64) int {
	q0, q1, q2, q3, q4, q5 := q[0], q[1], q[2], q[3], q[4], q[5]
	n := *dts
	off := lo * 6
	for j := lo; j < hi; j, off = j+1, off+6 {
		if l1 != nil && l1[j] >= qL1 {
			continue
		}
		n++
		r := rows[off : off+6 : off+6]
		if b2u(r[0] > q0)|b2u(r[1] > q1)|b2u(r[2] > q2)|b2u(r[3] > q3)|b2u(r[4] > q4)|b2u(r[5] > q5) != 0 {
			continue
		}
		if r[0] < q0 || r[1] < q1 || r[2] < q2 || r[3] < q3 || r[4] < q4 || r[5] < q5 {
			*dts = n
			return j
		}
	}
	*dts = n
	return -1
}

func firstDom8(rows []float64, lo, hi int, q []float64, qL1 float64, l1 []float64, dts *uint64) int {
	q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
	n := *dts
	off := lo * 8
	for j := lo; j < hi; j, off = j+1, off+8 {
		if l1 != nil && l1[j] >= qL1 {
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
			*dts = n
			return j
		}
	}
	*dts = n
	return -1
}

func domRunGeneric(rows []float64, d, lo, hi int, q []float64, qL1 float64, l1 []float64, skip []uint32, dts *uint64) bool {
	n := *dts
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
			*dts = n
			return true
		}
	}
	*dts = n
	return false
}

func domRun4(rows []float64, lo, hi int, q []float64, qL1 float64, l1 []float64, skip []uint32, dts *uint64) bool {
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	n := *dts
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
			*dts = n
			return true
		}
	}
	*dts = n
	return false
}

func domRun6(rows []float64, lo, hi int, q []float64, qL1 float64, l1 []float64, skip []uint32, dts *uint64) bool {
	q0, q1, q2, q3, q4, q5 := q[0], q[1], q[2], q[3], q[4], q[5]
	n := *dts
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
			*dts = n
			return true
		}
	}
	*dts = n
	return false
}

func domRun8(rows []float64, lo, hi int, q []float64, qL1 float64, l1 []float64, skip []uint32, dts *uint64) bool {
	q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
	n := *dts
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
			*dts = n
			return true
		}
	}
	*dts = n
	return false
}

func domRun10(rows []float64, lo, hi int, q []float64, qL1 float64, l1 []float64, skip []uint32, dts *uint64) bool {
	q0, q1, q2, q3, q4 := q[0], q[1], q[2], q[3], q[4]
	q5, q6, q7, q8, q9 := q[5], q[6], q[7], q[8], q[9]
	n := *dts
	off := lo * 10
	for j := lo; j < hi; j, off = j+1, off+10 {
		if skip != nil && atomic.LoadUint32(&skip[j]) != 0 {
			continue
		}
		if l1 != nil && l1[j] == qL1 {
			continue
		}
		n++
		r := rows[off : off+10 : off+10]
		if b2u(r[0] > q0)|b2u(r[1] > q1)|b2u(r[2] > q2)|b2u(r[3] > q3)|b2u(r[4] > q4)|
			b2u(r[5] > q5)|b2u(r[6] > q6)|b2u(r[7] > q7)|b2u(r[8] > q8)|b2u(r[9] > q9) != 0 {
			continue
		}
		if r[0] < q0 || r[1] < q1 || r[2] < q2 || r[3] < q3 || r[4] < q4 ||
			r[5] < q5 || r[6] < q6 || r[7] < q7 || r[8] < q8 || r[9] < q9 {
			*dts = n
			return true
		}
	}
	*dts = n
	return false
}

func domRun12(rows []float64, lo, hi int, q []float64, qL1 float64, l1 []float64, skip []uint32, dts *uint64) bool {
	q0, q1, q2, q3, q4, q5 := q[0], q[1], q[2], q[3], q[4], q[5]
	q6, q7, q8, q9, q10, q11 := q[6], q[7], q[8], q[9], q[10], q[11]
	n := *dts
	off := lo * 12
	for j := lo; j < hi; j, off = j+1, off+12 {
		if skip != nil && atomic.LoadUint32(&skip[j]) != 0 {
			continue
		}
		if l1 != nil && l1[j] == qL1 {
			continue
		}
		n++
		r := rows[off : off+12 : off+12]
		if b2u(r[0] > q0)|b2u(r[1] > q1)|b2u(r[2] > q2)|b2u(r[3] > q3)|b2u(r[4] > q4)|b2u(r[5] > q5)|
			b2u(r[6] > q6)|b2u(r[7] > q7)|b2u(r[8] > q8)|b2u(r[9] > q9)|b2u(r[10] > q10)|b2u(r[11] > q11) != 0 {
			continue
		}
		if r[0] < q0 || r[1] < q1 || r[2] < q2 || r[3] < q3 || r[4] < q4 || r[5] < q5 ||
			r[6] < q6 || r[7] < q7 || r[8] < q8 || r[9] < q9 || r[10] < q10 || r[11] < q11 {
			*dts = n
			return true
		}
	}
	*dts = n
	return false
}

func domRun16(rows []float64, lo, hi int, q []float64, qL1 float64, l1 []float64, skip []uint32, dts *uint64) bool {
	q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
	q8, q9, q10, q11, q12, q13, q14, q15 := q[8], q[9], q[10], q[11], q[12], q[13], q[14], q[15]
	n := *dts
	off := lo * 16
	for j := lo; j < hi; j, off = j+1, off+16 {
		if skip != nil && atomic.LoadUint32(&skip[j]) != 0 {
			continue
		}
		if l1 != nil && l1[j] == qL1 {
			continue
		}
		n++
		r := rows[off : off+16 : off+16]
		if b2u(r[0] > q0)|b2u(r[1] > q1)|b2u(r[2] > q2)|b2u(r[3] > q3)|
			b2u(r[4] > q4)|b2u(r[5] > q5)|b2u(r[6] > q6)|b2u(r[7] > q7)|
			b2u(r[8] > q8)|b2u(r[9] > q9)|b2u(r[10] > q10)|b2u(r[11] > q11)|
			b2u(r[12] > q12)|b2u(r[13] > q13)|b2u(r[14] > q14)|b2u(r[15] > q15) != 0 {
			continue
		}
		if r[0] < q0 || r[1] < q1 || r[2] < q2 || r[3] < q3 ||
			r[4] < q4 || r[5] < q5 || r[6] < q6 || r[7] < q7 ||
			r[8] < q8 || r[9] < q9 || r[10] < q10 || r[11] < q11 ||
			r[12] < q12 || r[13] < q13 || r[14] < q14 || r[15] < q15 {
			*dts = n
			return true
		}
	}
	*dts = n
	return false
}

package point

// Flat dominance kernels: offset-based entry points that index row-major
// matrix storage directly instead of materializing per-row slice headers,
// all on one pairwise test, dominatesRow. The loop-level "run" kernels
// that test one probe against a contiguous run of rows are the counting
// family in count.go plus FirstDominatorInFlatRun here. The paper's C++
// implementation gets its constant factors from AVX kernels over
// contiguous blocks (Section IV); these kernels are the Go analogue and
// are what the hot paths of Hybrid and Q-Flow call.

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

// FirstDominatorInFlatRun returns the index j ∈ [lo, hi) of the first row
// of the row-major flat matrix rows that strictly dominates the probe q,
// or -1 when no row does. It is the bucket-assignment companion of
// CountDominatorsInFlatRun at budget 1: incremental maintenance needs not
// just whether a probe is dominated but by whom, so the dominated point
// can be filed under that skyline point's exclusive-dominance bucket.
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

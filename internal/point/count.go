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
// Phase I calls CountDominatorsInFlatRunMasked and its Phase II
// CountDominatorsInFlatRunCoded.
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

// CountDominatorsInFlatRunMasked is CountDominatorsInFlatRun behind the
// partition-mask filter of Section VI-A2: row j ∈ [lo, hi) is
// dominance-tested only when masks[j] ⊆ qm, and the filter runs a word
// of masks at a time (PackedMasks.subsets) with the candidate rows taken
// in ascending order, so the count, the row the budget is reached on and
// *dts are those of a row-by-row scan. It is the kernel behind every
// Phase I scan of the Go probe, skyline (budget 1) and k-skyband alike:
// each M(S) partition's level-2 scan, and on a run without level 2
// (Q-Flow, the NoMS and NoLevel2 ablations) each partition's whole run,
// whose masks are the partition's level-1 mask and all pass. Where a
// partition has level 2, most rows fail the filter, and those cost no
// branch. codes and qc are CountDominatorsInFlatRun's code-word
// pre-test, asked of a row that passed the mask filter and was counted
// as a test. At d ≤ 8 with the vector bodies on, Phase I asks
// ProbeDirectory8 instead, which makes the same decisions and counts.
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

// ProbeDirectory8 is Phase I's probe (Algorithm 3, compareToSky, through
// the two-level M(S) of Section VI-A2) at d ≤ 8 as one AVX-512 call: it
// counts the rows that dominate q, up to budget (≥ 1), in a store of
// partitions. Partition e of the directory dir spans rows [starts[e],
// starts[e+1]) of the row-major rows (d columns); masks holds every
// row's mask and codes its code word. The call walks the directory,
// and for each entry whose mask is a subset of qm and, where dirCodes
// is not nil, whose minimum code word dirCodes[e] passes the pre-test
// against qc, scans the partition: with level2 its first row is the
// level-2 pivot, and q's mask against it (bit i set iff q[i] ≥ pivot[i])
// filters the rest; without it every row is filtered against qm. A full
// level-2 mask adds the pivot as a dominator, or, when q equals the
// pivot, ends the entry with nothing added.
//
// The count and *dts are those of internal/core's Go probe, which walks
// with PackedMasks.NextSubsetCoded, masks with ComputeMask and scans with
// CountDominatorsInFlatRunMasked: one test for each level-2 pivot, one
// for each row that passes the subset filter up to the budget-th
// dominator, code-rejected rows included, and none for a directory
// entry. q, the walk's position, the code guards and the budget stay in
// registers between partitions, so a probe pays one call set-up, not one
// a partition and scan. Call it only when VectorBodies reports true.
func ProbeDirectory8(rows []float64, d int, dir *PackedMasks, starts []int, dirCodes []uint64, masks *PackedMasks, codes []uint64, level2 bool, q []float64, qm Mask, qc uint64, budget int, dts *uint64) int {
	np := dir.Len()
	if np == 0 {
		return 0
	}
	if d < 1 || d > 8 || dir.lane != 3 || masks.lane != 3 {
		panic("point: ProbeDirectory8 needs 1 ≤ d ≤ 8 and masks of 8-bit lanes")
	}
	// The assembly reads without bounds checks: the directory's np
	// entries and starts[np], rows, masks and codes below starts[np], and
	// q's d coordinates.
	end := starts[np]
	_, _, _, _ = rows[end*d-1], masks.w[(end-1)>>masks.idx], codes[end-1], q[d-1]
	var flags uint64
	if level2 {
		flags |= 1
	}
	dc := &codes[0] // never read without the skip
	if dirCodes != nil {
		_ = dirCodes[np-1]
		flags |= 2
		dc = &dirCodes[0]
	}
	h := codeGuards[d]
	return probeDir8(&rows[0], d, &dir.w[0], dc, &starts[0], np, &masks.w[0], &codes[0], &q[0], flags, uint64(qm), qc|h, h, budget, dts)
}

package point

// ProbeDirectory is Phase I's probe (Algorithm 3, compareToSky, through
// the two-level M(S) of Section VI-A2): it counts the rows that
// dominate q, up to budget (≥ 1), in a store of partitions, in
// directory order. Partition e of the directory dir spans rows
// [starts[e], starts[e+1]) of the row-major rows (d columns); masks
// holds every row's mask and codes its code word. The probe walks the
// directory and scans each entry whose mask is a subset of qm and,
// where dirCodes is not nil, whose minimum code word dirCodes[e] passes
// the pre-test against qc. A partition whose mask fails is incomparable
// with q as a whole; one whose minimum code fails holds no dominator,
// since each member's code is at least that minimum in every lane and
// the pre-test never rejects a dominator (DESIGN.md §2).
//
// With level2 a partition's first row is its level-2 pivot, and q's
// mask against it (ComputeMask) filters the rest; without it every row
// is filtered against qm, which its level-1 mask passed, so each row is
// tested, in row order. Each tested row's code word is asked before its
// float test. A full level-2 mask adds the pivot as a dominator, or,
// when q equals the pivot, ends the entry with nothing added: the pivot
// has the partition's smallest L1 norm, so no other member can dominate
// it or the coincident probe. No later partition adds to the count
// either: q's level-1 mask is then the partition's, and the directory
// is in (level, mask) order, so no later entry passes the subset
// filter. On a skyline store this is Algorithm 3's early "undominated"
// return.
//
// *dts is advanced by one test for each level-2 pivot, one for each row
// that passes the subset filter up to the budget-th dominator,
// code-rejected ones included, and none for a directory entry.
//
// At d ≤ 8 with the vector bodies on (probeVec), the whole probe is one
// AVX-512 call, probeDir8: the directory 64 entries a step, each
// partition 64 rows a step, and q, the walk's position, the code guards
// and the budget in registers between partitions. It books a test
// exactly where the Go body (probeGo) does; the Go body is the
// reference and the path everywhere else.
func ProbeDirectory(rows []float64, d int, dir *PackedMasks, starts []int, dirCodes []uint64, masks *PackedMasks, codes []uint64, level2 bool, q []float64, qm Mask, qc uint64, budget int, dts *uint64) int {
	np := dir.Len()
	if !probeVec(d) || np == 0 {
		return probeGo(rows, d, dir, starts, dirCodes, masks, codes, level2, q, qm, qc, budget, dts)
	}
	if dir.lane != 3 || masks.lane != 3 {
		panic("point: ProbeDirectory's vector body needs masks of 8-bit lanes")
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

// probeVec reports whether ProbeDirectory takes its vector body at d.
func probeVec(d int) bool { return vector && d <= 8 }

// probeGo is ProbeDirectory's Go body: the directory walk
// (PackedMasks.nextSubsetCoded), q's level-2 mask against each pivot and
// the masked scan of the rest (countMasked).
func probeGo(rows []float64, d int, dir *PackedMasks, starts []int, dirCodes []uint64, masks *PackedMasks, codes []uint64, level2 bool, q []float64, qm Mask, qc uint64, budget int, dts *uint64) int {
	c, np, full := 0, dir.Len(), FullMask(d)
	for e := dir.nextSubsetCoded(0, np, qm, dirCodes, qc, d); e < np; e = dir.nextSubsetCoded(e+1, np, qm, dirCodes, qc, d) {
		lo, hi := starts[e], starts[e+1]
		m2 := qm
		if level2 {
			*dts++
			pivot := rows[lo*d : (lo+1)*d : (lo+1)*d]
			if m2 = ComputeMask(q, pivot); m2 == full {
				if Equals(pivot, q) {
					continue // coincides with the pivot: the partition adds 0
				}
				if c++; c >= budget { // the pivot dominates q
					return c
				}
			}
			lo++
		}
		if c += countMasked(rows, d, lo, hi, q, masks, m2, codes, qc, budget-c, dts); c >= budget {
			return c
		}
	}
	return c
}

// countMasked is probeGo's partition scan: CountDominatorsInFlatRun
// behind the partition-mask filter, where row j ∈ [lo, hi) is tested
// only when masks[j] ⊆ qm. The filter runs a word of masks at a time
// (PackedMasks.subsets) with the candidate rows taken in ascending
// order, so the count, the row the budget is reached on and *dts are
// those of a row-by-row scan; where a partition has level 2, most rows
// fail the filter, and those cost no branch. A row that passes is
// counted as a test, and its code word is asked against qc before its
// float test.
func countMasked(rows []float64, d, lo, hi int, q []float64, pm *PackedMasks, qm Mask, codes []uint64, qc uint64, budget int, dts *uint64) int {
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
			if !codeLE(codes[j], qg, h) {
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

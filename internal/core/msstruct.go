package core

import (
	"skybench/internal/point"
)

// skylineStore holds the global, shared skyline and the M(S) structure
// over it. Rows are contiguous (row-major in data) because blocks are
// appended already compressed; partitions are contiguous because the
// sort order groups masks and compression preserves order. The store is
// embedded in a Context and reused across runs: reset keeps the
// underlying capacity so steady-state runs allocate nothing.
//
// M(S) is a directory of level-1 partitions (Figure 3b), held as three
// parallel columns: partition e carries mask msMask[e], spans rows
// [msStart[e], msStart[e+1]) — msStart ends with a sentinel |S| — and
// has msCode[e], the lane-wise minimum of its members' code words
// (point.CodeMin). Both mask columns, msMask and the per-row mask2,
// are packed lane vectors, because both are read the same way: a probe
// walks one looking for the masks that are subsets of its own
// (point.PackedMasks).
type skylineStore struct {
	d       int
	data    []float64         // len = n*d, row-major skyline points
	mask2   point.PackedMasks // level-2 mask (Algorithm 2); pivots retain level-1
	orig    []int             // original input indices
	code    []uint64          // code word of every skyline point (point.Quantizer, fixed for the run)
	counts  []int32           // dominator counts (k-skyband runs only; else empty)
	msMask  point.PackedMasks // M(S): one level-1 mask per partition
	msStart []int             // M(S): first row of each partition + trailing sentinel
	msCode  []uint64          // M(S): lane-wise minimum code word of each partition
	skip    bool              // countDominators skips partitions on msCode (partitioned runs with M(S))
	level2  bool              // update re-partitions at level 2; countDominators probes the level-2 pivots
}

// reset prepares the store for a fresh run of dimensionality d, keeping
// the capacity accumulated by previous runs. skip is set on a
// partitioned run that keeps M(S) (not the NoMS ablation). Q-Flow's one
// partition holds every skyline row, and its minimum code passes nearly
// every probe, so Q-Flow asks none and counts the tests the paper's
// Q-Flow makes. level2 is set on a partitioned run with M(S) and level 2
// (neither the NoMS nor the NoLevel2 ablation).
func (s *skylineStore) reset(d int, skip, level2 bool) {
	s.d = d
	s.skip = skip
	s.level2 = level2
	s.data = s.data[:0]
	s.mask2.Reset(d)
	s.orig = s.orig[:0]
	s.code = s.code[:0]
	s.counts = s.counts[:0]
	s.msMask.Reset(d)
	s.msStart = s.msStart[:0]
	s.msCode = s.msCode[:0]
}

// size returns |S|.
func (s *skylineStore) size() int { return len(s.orig) }

// row returns skyline point j's coordinates.
func (s *skylineStore) row(j int) []float64 {
	return s.data[j*s.d : (j+1)*s.d]
}

// update implements Algorithm 2 (updateS&M): append the compressed block
// Q to S and extend M(S). Points falling into the partition that is
// currently last in M(S) are re-partitioned at level 2 around that
// partition's pivot (its first point, the one with smallest L1); each new
// partition's first point becomes its level-2 pivot and retains its
// level-1 mask. A new partition's minimum code starts at its pivot's
// code word, and every later member folds its own in.
//
// Without level 2 (Q-Flow and the NoMS and NoLevel2 ablations), points
// keep their level-1 masks and no re-partitioning happens, but the
// partition directory is still extended.
//
// bcnt, when non-nil, holds the block-relative dominator counts of the
// appended points (k-skyband runs); they are recorded alongside so the
// caller can surface per-point counts. Skyline runs pass nil and the
// counts column stays empty. wcode is the working set's code words,
// appended to the store's alongside the rows.
func (s *skylineStore) update(work point.Matrix, worig []int, wmask []point.Mask, wcode []uint64, bcnt []int32, lo, count int) {
	if count == 0 {
		return
	}
	// Pop the sentinel; remember the current top partition, if any.
	curMask := point.Mask(0)
	curPivot := -1
	if np := s.msMask.Len(); np > 0 {
		s.msStart = s.msStart[:np]
		curMask, curPivot = s.msMask.At(np-1), s.msStart[np-1]
	}
	for i := 0; i < count; i++ {
		j := len(s.orig) // index this point will take in S
		m1 := wmask[lo+i]
		s.data = append(s.data, work.Row(lo+i)...)
		s.orig = append(s.orig, worig[lo+i])
		s.code = append(s.code, wcode[lo+i])
		if bcnt != nil {
			s.counts = append(s.counts, bcnt[i])
		}
		if curPivot >= 0 && m1 == curMask {
			// Same partition as the current top: assign level-2 mask
			// relative to the partition's pivot.
			m2 := m1
			if s.level2 {
				m2 = point.ComputeMask(work.Row(lo+i), s.row(curPivot))
			}
			s.mask2.Append(m2)
			top := len(s.msCode) - 1
			s.msCode[top] = point.CodeMin(s.msCode[top], wcode[lo+i], s.d)
		} else {
			// First point of a new partition: it becomes the level-2
			// pivot and retains its level-1 mask.
			s.msMask.Append(m1)
			s.msStart = append(s.msStart, j)
			s.msCode = append(s.msCode, wcode[lo+i])
			curMask, curPivot = m1, j
			s.mask2.Append(m1)
		}
	}
	s.msStart = append(s.msStart, len(s.orig)) // push the sentinel
}

// nextEntry returns the first directory entry at or after e whose mask
// is a subset of qMask and, on a partitioned run, whose minimum code
// word passes the pre-test against qc, or the directory's length when
// there is none (point.PackedMasks.NextSubsetCoded).
func (s *skylineStore) nextEntry(e int, qMask point.Mask, qc uint64) int {
	codes := s.msCode
	if !s.skip {
		codes = nil
	}
	return s.msMask.NextSubsetCoded(e, s.msMask.Len(), qMask, codes, qc, s.d)
}

// countDominators implements Algorithm 3 (compareToSky) at a dominator
// budget: it counts the stored points that dominate q, in
// partition-directory order, stopping as soon as the count reaches
// budget (a probe with ≥ budget dominators is discarded, so the excess is
// never needed; the skyline path runs at budget 1). qMask is q's level-1
// mask and qc its code word, which the scan asks before a float test
// (point.CountDominatorsInFlatRunMasked). The subset filter runs
// twice, both times a word of packed masks at a time: over the
// directory, where a partition whose mask is not a subset of qMask is
// incomparable with q as a whole and costs nothing, and over the level-2
// masks of each partition that is left. Between the two, on a
// partitioned run, a partition whose minimum code word fails the
// pre-test against qc is skipped whole: each member's code is at least
// that minimum in every lane, so each member fails the pre-test too, and
// the pre-test never rejects a dominator (DESIGN.md §2); the
// directory's filter and that pre-test are one walk (nextEntry). All
// point accesses index the store's flat row-major data directly.
//
// A store without level 2 runs the same scan over each partition's whole
// run against qMask: every member's mask2 is the partition's level-1
// mask, which passed the directory's subset filter, so each row is
// tested, in row order.
//
// dts accumulates the dominance tests performed: every row a scan
// tests, and each level-2 pivot's mask computation, which inspects all
// d dimensions. A partition skipped on its minimum code books no test.
// That is where the default arm makes fewer tests than the paper's
// Hybrid (HybridOptions.NoCodes), whose codes are all 0 and whose
// minima pass every probe.
//
// A full level-2 mask against a segment pivot contributes one dominator
// — or, when q coincides with the pivot, none: the pivot has the
// segment's smallest L1 norm, so no other member can dominate it or the
// coincident probe. No later segment adds to the count either: q's
// level-1 mask is then the segment's, and the directory is in
// (level, mask) order, so every segment whose mask is a proper subset of
// it — the only ones that could hold a dominator of a band pivot — came
// before, and no later one passes the subset filter. On a skyline store
// this is Algorithm 3's early "undominated" return, reached after the
// same tests on the NoCodes arm.
//
// At d ≤ 8 with the vector bodies on (point.VectorBodies), the whole
// probe is one AVX-512 call, point.ProbeDirectory8: the directory walk,
// each pivot's mask, the full-mask and coincident-pivot rules and each
// partition's scan, with q, the budget and the count in registers
// between partitions. It books a test exactly where the Go body below
// does, so the count and *dts are the same; the Go body is the
// reference and the path everywhere else (DESIGN.md §2).
func (s *skylineStore) countDominators(q []float64, qc uint64, qMask point.Mask, budget int, dts *uint64) int {
	if s.d <= 8 && point.VectorBodies() {
		var dirCodes []uint64
		if s.skip {
			dirCodes = s.msCode
		}
		return point.ProbeDirectory8(s.data, s.d, &s.msMask, s.msStart, dirCodes, &s.mask2, s.code, s.level2, q, qMask, qc, budget, dts)
	}
	full := point.FullMask(s.d)
	d := s.d
	data := s.data
	np := s.msMask.Len()
	c := 0
	for e := s.nextEntry(0, qMask, qc); e < np; e = s.nextEntry(e+1, qMask, qc) {
		lo, hi := s.msStart[e], s.msStart[e+1]
		m2 := qMask
		if s.level2 {
			// Compare q to the partition's level-2 pivot, producing q's
			// level-2 mask m′ (one full-width comparison).
			*dts++
			m2 = point.ComputeMask(q, data[lo*d:(lo+1)*d:(lo+1)*d])
			if m2 == full {
				if point.EqualsFlat2(data, lo*d, q, 0, d) {
					continue // coincides with the pivot: the segment contributes 0
				}
				c++ // the pivot dominates q
				if c >= budget {
					return c
				}
			}
			lo++
		}
		// Scan the rest of the partition, or all of it without level 2,
		// behind the mask filter.
		c += point.CountDominatorsInFlatRunMasked(data, d, lo, hi, q, &s.mask2, m2, s.code, qc, budget-c, dts)
		if c >= budget {
			return c
		}
	}
	return c
}

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

// countDominators implements Algorithm 3 (compareToSky) at a dominator
// budget: it counts the stored points that dominate q, in
// partition-directory order, stopping as soon as the count reaches
// budget (a probe with ≥ budget dominators is discarded, so the excess is
// never needed; the skyline path runs at budget 1). qMask is q's level-1
// mask and qc its code word. It is one call to point.ProbeDirectory over
// the store's columns: the directory walk, each level-2 pivot and the
// masked scan of each partition left. A partitioned run (skip) passes
// msCode, so the walk skips a partition whose minimum code word fails
// the pre-test against qc; a store with level 2 has its pivots probed.
//
// dts accumulates the dominance tests performed: every row a scan
// tests, and each level-2 pivot's mask computation, which inspects all
// d dimensions. A partition skipped on its minimum code books no test.
// That is where the default arm makes fewer tests than the paper's
// Hybrid (HybridOptions.NoCodes), whose codes are all 0 and whose
// minima pass every probe.
func (s *skylineStore) countDominators(q []float64, qc uint64, qMask point.Mask, budget int, dts *uint64) int {
	var dirCodes []uint64
	if s.skip {
		dirCodes = s.msCode
	}
	return point.ProbeDirectory(s.data, s.d, &s.msMask, s.msStart, dirCodes, &s.mask2, s.code, s.level2, q, qMask, qc, budget, dts)
}

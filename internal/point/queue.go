package point

import (
	"math"
	"slices"
)

// Queue is one thread's β-queue in the pre-filter's pass 1 (Section
// VI-A1): β unordered slots holding the rows with the smallest L1 norms
// the thread has offered, their norms, and a dense row-major copy of the
// rows, so a queue test scans β·d contiguous, L1-cache-resident floats
// instead of β scattered source rows. Scan tests rows against the full
// queue and Offer updates it.
//
// On a view of an 8-column source that negates no column (View.Source8:
// the identity, or one that only drops columns), at β = 8 with the
// vector bodies on, the queue keeps its slots twice more by source
// column, column-major in vec[0:64] (vec[c*8+s] is source column c of
// slot s) and row-major in vec[64:128], with NaN in every dropped
// column, and Scan runs scan8 over the source rows as they are, so only
// the rows it stops on are loaded through the view. scan8's first
// compare, "no worse", is true on an unordered pair and its second,
// "better", asked only of the slots no worse anywhere, is false on one,
// so a NaN column is neither worse nor better, and dominance over the 8
// columns is dominance over the kept ones, whatever a row holds in the
// others.
//
// The zero value is empty; Reset sizes a queue and keeps its storage,
// so a queue reused run after run allocates only while it grows.
type Queue struct {
	v     View
	l1    []float64 // β norms, by slot
	dense []float64 // β rows of d values, by slot
	d, n  int       // n: filled slots
	top   int       // the filled slot with the largest norm, the first of equals
	src   []float64 // the view's 8-column source where Scan runs scan8, else nil
	cols  []int     // source column of each view column, where src is set
	vec   [128]float64
}

// Reset empties the queue for beta slots of rows read through v.
func (q *Queue) Reset(v *View, beta int) {
	q.v, q.d, q.n, q.top = *v, v.D(), 0, 0
	q.l1 = slices.Grow(q.l1[:0], beta)[:beta]
	q.dense = slices.Grow(q.dense[:0], beta*q.d)[:beta*q.d]
	q.src, q.cols = nil, nil
	if src, cols := v.Source8(); vector && beta == 8 && src != nil {
		q.src, q.cols = src, cols
		for c := range q.vec {
			q.vec[c] = math.NaN()
		}
	}
}

// Scan returns the first row i ∈ [lo, hi) that the queue does not
// prune, and the row as the view loads it (into buf, which must hold
// D() values, or the source row itself), or hi and nil when it prunes
// every row. A row is pruned when budget or more slots dominate it;
// until the queue is full it prunes none, and Scan returns lo. *dts is
// advanced by the dominance tests, those of CountDominatorsInFlatRun
// over the β slots row by row, whichever body runs.
func (q *Queue) Scan(lo, hi, budget int, buf []float64, dts *uint64) (int, []float64) {
	i := lo
	switch {
	case q.n < len(q.l1):
	case q.src != nil:
		i += scan8(&q.vec, q.src[lo*8:hi*8], budget, dts)
	default:
		for ; i < hi; i++ {
			if row := q.v.Load(i, buf); CountDominatorsInFlatRun(q.dense, q.d, 0, q.n, row, budget, dts) < budget {
				return i, row
			}
		}
	}
	if i == hi {
		return hi, nil
	}
	return i, q.v.Load(i, buf)
}

// Offer puts a row the queue did not prune, with its norm l1, into a
// free slot, or over the largest point if l1 is smaller; the evicted
// point is already a candidate and is re-tested in pass 2. A NaN norm
// is never queued: it compares with no other, so a NaN-norm row in the
// queue would never be replaced, and in the union it would break the
// ascending norms pass 2 searches. The row stays a candidate. A write
// updates every copy of its one slot and rescans the β norms for the
// largest. Writes after the queue fills are rare, about β·ln(n/β) a
// thread on rows in random order, so the rescan costs nothing a heap
// would save.
func (q *Queue) Offer(l1 float64, row []float64) {
	s := q.n
	switch {
	case math.IsNaN(l1):
		return
	case s < len(q.l1):
		q.n++
	case l1 < q.l1[q.top]:
		s = q.top
	default:
		return
	}
	q.l1[s] = l1
	copy(q.dense[s*q.d:(s+1)*q.d], row)
	for k, c := range q.cols {
		q.vec[c*8+s], q.vec[64+s*8+c] = row[k], row[k]
	}
	q.top = 0
	for t, x := range q.l1[:q.n] {
		if x > q.l1[q.top] {
			q.top = t
		}
	}
}

// Len returns the number of filled slots.
func (q *Queue) Len() int { return q.n }

// Slot returns filled slot s's norm and row, d values that alias the
// queue.
func (q *Queue) Slot(s int) (float64, []float64) {
	return q.l1[s], q.dense[s*q.d : (s+1)*q.d : (s+1)*q.d]
}

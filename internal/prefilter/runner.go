// Package prefilter implements the two-pass parallel pre-filter of the
// Hybrid algorithm (Section VI-A1 of the paper).
//
// Most datasets contain points dominated by a large share of the input;
// the pre-filter removes them cheaply before the heavier initialization
// work (pivot selection, sorting). Each thread maintains a priority queue
// of the β points with smallest L1 norm it has seen; in a second pass the
// points the queues could not prune are tested against the union of the
// per-thread queues.
package prefilter

import (
	"slices"

	"skybench/internal/par"
	"skybench/internal/point"
	"skybench/internal/stats"
)

// DefaultBeta is the queue capacity β = 8 the paper configured
// empirically (footnote 3; appreciable impact only on correlated data).
const DefaultBeta = 8

// Runner is a reusable, allocation-free implementation of the two-pass
// pre-filter. All scratch (per-thread β-queues, the candidate list and
// its row store, the gathered queue matrix) persists across calls, and
// both passes run on a caller-supplied worker team leased from a
// persistent pool, so a steady-state Filter call performs no
// allocations and no goroutine spawns.
//
// Pass 1 is the one sweep of a Hybrid run that touches every input row,
// so everything that needs the whole input happens inside it, once per
// row: the row is loaded through the preference view (point.View — the
// transform is never staged) and, once the thread's β-queue is full,
// tested against it. Rows the queue prunes leave no trace, not even a
// norm: only a surviving row (or one filling the queue) has its L1 norm
// taken, replaces the queue's largest point if its norm is smaller, and
// is appended, with its norm and its loaded row, to the thread's segment
// of a candidate list. There is no per-row norm array and no per-row
// pruned bitmap: after pass 1 nothing is n-sized but the list's
// capacity, and only the candidates' share of that is ever written.
// Where the candidates are sparse, the row store (Rows), sized by the
// candidates alone, is the last read of the source for the rows pass 1
// keeps: pass 2 tests the stored rows, and the caller gathers its
// working set from the Rows Filter returns. Where they are dense, pass 2
// and the caller load them through the view again (storeShare).
//
// The queues keep dense copies of their rows and norms, so the union is
// gathered from the queues themselves into a dense row-major matrix
// sorted by L1 norm. Pass 2 fans out over the candidates alone, scans
// the contiguous queue run with each stored row's coordinates hoisted
// into registers (point.CountDominatorsInFlatRun at budget k) and stops
// at the first queue point whose L1 norm is ≥ the probe's, the paper's
// footnote 2 cut-off. A point with a larger computed norm never
// dominates the probe, but one with an equal norm can (DESIGN.md §9,
// "Numeric precondition"). The filter only prunes, so a dominator it
// misses leaves one more survivor for the exact phases; the cut-off also
// keeps a queue point from testing itself. Each thread compacts its
// range of the list and of the row store in place; joining the ranges
// yields the survivors.
type Runner struct {
	qdense []float64 // threads*beta*d queue rows, one max-heap by L1 per thread
	qheapL []float64 // threads*beta L1 norms of the queue rows, in heap order
	qcols  []float64 // threads*64: each queue column-major, when pass 1 takes point.Scan8
	qcount []int
	allq   []int     // heap slots of the queue union, sorted by L1
	qrows  []float64 // gathered queue rows matching allq order
	ql1    []float64 // queue L1 norms matching allq order

	// Candidate rows and their L1 norms, ascending by row. Each pass
	// leaves one run per thread — segN[tid] entries from segLo[tid] —
	// which join closes up. rows holds the candidates' loaded rows, by
	// position in the list.
	cand  []int
	cl1   []float64
	rows  Rows
	segLo []int
	segN  []int

	// Parallel-region parameters, set by Filter before each fan-out.
	v     point.View
	beta  int
	k     int  // dominator budget: prune only points with ≥ k dominators
	scan8 bool // pass 1 tests full queues with point.Scan8
	dts   *stats.DTCounters

	pass1 func(tid, lo, hi int)
	pass2 func(tid, lo, hi int)
}

// useScan8 lets pass 1 take point.Scan8 on the shapes it fits (identity
// view, d = 8, β = 8). Tests clear it to run the Go body, which every
// other shape takes and which stays the reference.
var useScan8 = point.HasScan8()

// NewRunner creates a Runner with its parallel bodies pre-bound (so
// dispatching them allocates nothing).
func NewRunner() *Runner {
	r := &Runner{}
	r.pass1 = r.runPass1
	r.pass2 = r.runPass2
	return r
}

// Filter removes easily-dominated rows of v and returns the surviving row
// indices in their original order together with the survivors' L1 norms
// and, where pass 1 kept the candidates' rows (storeShare), their rows
// (Rows.Row(i) is survivor i's; nil otherwise), all under the view's
// transform. All three alias the Runner and are valid until the next
// call. beta ≤ 0 selects DefaultBeta. Both passes run on the whole of
// team, whose size is the filter's thread count (one β-queue per
// thread). dts, when non-nil, accumulates dominance tests per thread.
// The passes run without a cancellation flag on purpose: skipping one
// would leave the queue and segment bookkeeping of a previous (possibly
// larger) run to be consumed below.
//
// k is the dominator budget of the run (≤ 1 selects the skyline): for a
// k-skyband computation the filter may only discard points that already
// have ≥ k dominators among the queue points, so both passes count
// dominators up to k instead of aborting on the first, and the queue
// union is pruned to its own k-skyband rather than its skyline. The
// counts themselves are discarded: queue points survive into the main
// algorithm's working set, which recounts every survivor's dominators
// exactly — carrying partial counts out of the filter would double-count
// them.
func (r *Runner) Filter(v point.View, beta, k int, team *par.Team, dts *stats.DTCounters) ([]int, []float64, *Rows) {
	n := v.N()
	if n == 0 {
		return nil, nil, nil
	}
	if beta <= 0 {
		beta = DefaultBeta
	}
	// A queue larger than the rows its thread scans (at most n) never
	// fills, so the clamp is exact; it bounds the threads·β·d queue
	// storage an oversized β would allocate.
	beta = min(beta, n)
	if k < 1 {
		k = 1
	}
	threads := team.Threads()

	d := v.D()
	r.qdense = grow(r.qdense, threads*beta*d)
	r.qheapL = grow(r.qheapL, threads*beta)
	r.allq = grow(r.allq, threads*beta)
	r.qcount = grow(r.qcount, threads)
	r.segLo = grow(r.segLo, threads)
	r.segN = grow(r.segN, threads)
	r.cand = grow(r.cand, n)
	r.cl1 = grow(r.cl1, n)
	r.rows.reset(d, threads)
	r.scan8 = useScan8 && d == 8 && beta == 8 && v.Flat() != nil
	if r.scan8 {
		r.qcols = grow(r.qcols, threads*64)
	}
	// A fan-out over fewer rows than threads leaves the idle threads'
	// entries untouched, so they are cleared before each pass.
	clear(r.qcount)
	clear(r.segN)

	r.v, r.beta, r.k, r.dts = v, beta, k, dts

	// Pass 1: load, test against the thread's full β-queue, then norm
	// and queue update for the rows it does not prune.
	team.ForRangesCancel(threads, n, nil, r.pass1)
	nc := r.join(true)
	r.rows.stored = !slices.Contains(r.rows.over, true)

	// Gather the queue union, sort it by L1 ascending, materialize the
	// rows contiguously. The union holds ≤ threads·β points, so an
	// insertion sort is plenty.
	hl := r.qheapL
	allq := r.allq[:0]
	for tid := 0; tid < threads; tid++ {
		for s := 0; s < r.qcount[tid]; s++ {
			allq = append(allq, tid*beta+s)
		}
	}
	nq := len(allq)
	for i := 1; i < nq; i++ {
		s := allq[i]
		j := i - 1
		for j >= 0 && hl[allq[j]] > hl[s] {
			allq[j+1] = allq[j]
			j--
		}
		allq[j+1] = s
	}
	// Prune the union to its own k-skyband (its skyline when k = 1): a
	// probe with ≥ k dominators in the union always has ≥ k dominators in
	// the union's k-skyband (every dominator of a band point is itself a
	// band point, by transitivity), so dropping the out-of-band queue
	// points leaves the surviving set unchanged while shrinking every
	// pass-2 scan. With t threads the union holds t·β points whose mutual
	// redundancy grows with t. Counting against the already-kept prefix
	// only prunes: a dominator whose computed norm ties its victim's may
	// sort after it (DESIGN.md §9), and then the union keeps an extra
	// point, which costs pass-2 tests and changes no survivor.
	var unionDTs uint64
	kept := 0
	for i := 0; i < nq; i++ {
		p := allq[i]
		doms := 0
		for j := 0; j < kept && doms < k; j++ {
			if point.DominatesFlatCounted(r.qdense, allq[j]*d, p*d, d, 0, 0, &unionDTs) {
				doms++
			}
		}
		if doms < k {
			allq[kept] = p
			kept++
		}
	}
	allq = allq[:kept]
	nq = kept
	if dts != nil {
		dts.Inc(0, unionDTs)
	}
	r.qrows, r.ql1 = grow(r.qrows, nq*d), grow(r.ql1, nq)
	for i, s := range allq {
		copy(r.qrows[i*d:(i+1)*d], r.qdense[s*d:(s+1)*d])
		r.ql1[i] = hl[s]
	}

	// Pass 2: every candidate against the queue union.
	clear(r.segN)
	team.ForRangesCancel(threads, nc, nil, r.pass2)
	ns := r.join(false)
	if !r.rows.stored {
		return r.cand[:ns], r.cl1[:ns], nil
	}
	return r.cand[:ns], r.cl1[:ns], &r.rows
}

// grow returns s resized to n, reallocating only when capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// join closes the gaps between the per-thread runs the last pass left in
// the candidate list and returns their total length. Static ranges make
// thread order row order, so the joined list is ascending by row. After
// pass 1 each thread's rows are already where Rows puts its run; after
// pass 2 the rows move along with the list. An empty run is skipped: a
// thread that a fan-out over fewer rows than threads left idle keeps
// the segLo of an earlier pass.
func (r *Runner) join(pass1 bool) int {
	w := 0
	for tid, n := range r.segN {
		if pass1 {
			r.rows.first[tid] = w
		}
		if n == 0 {
			continue
		}
		if lo := r.segLo[tid]; lo != w {
			copy(r.cand[w:w+n], r.cand[lo:lo+n])
			copy(r.cl1[w:w+n], r.cl1[lo:lo+n])
			if !pass1 && r.rows.stored {
				for i := 0; i < n; i++ {
					copy(r.rows.Row(w+i), r.rows.Row(lo+i))
				}
			}
		}
		w += n
	}
	return w
}

// blockShift sets the rows a Rows block holds, 1 << blockShift.
const blockShift = 10

// storeShare bounds the row store: a thread stores the rows of at most
// 1/storeShare of the rows it scans, and once its candidates pass that
// share, the call keeps no rows and loads the candidates through the
// view in pass 2 and in the caller's gather. Sparse candidates (on
// correlated data, a few percent of the rows) are scattered over the
// source, and each re-load is a cache miss that the store saves. Dense
// ones (on anticorrelated data, nearly every row) are re-read almost in
// order, so a store would buy little and hold a second copy of the
// input.
const storeShare = 8

// Rows is the pre-filter's candidate row store: each candidate's row as
// pass 1 loaded it through the view, addressed by the candidate's
// position in the list. Each thread keeps its own rows in fixed-size
// blocks, which a new block extends without moving the rows already
// stored, so the store grows with the candidates and never copies
// them: a growing contiguous store would leave each of its outgrown
// copies behind as garbage, several times the candidates' size.
type Rows struct {
	d      int
	stored bool          // every thread kept its rows: none is over
	over   []bool        // per thread: candidates past its storeShare
	first  []int         // per thread: list position of its first row
	blocks [][][]float64 // per thread: blocks of 1 << blockShift rows
}

// reset empties the store for rows of d values from threads threads.
func (s *Rows) reset(d, threads int) {
	s.d = d
	s.over = grow(s.over, threads)
	clear(s.over)
	s.first = grow(s.first, threads)
	for len(s.blocks) < threads {
		s.blocks = append(s.blocks, nil)
	}
}

// Row returns the row at list position i, d values that alias the
// store.
func (s *Rows) Row(i int) []float64 {
	t := len(s.first) - 1
	for s.first[t] > i {
		t--
	}
	return s.slot(t, i-s.first[t])
}

// slot returns the storage of thread t's k-th row.
func (s *Rows) slot(t, k int) []float64 {
	o := (k & (1<<blockShift - 1)) * s.d
	return s.blocks[t][k>>blockShift][o : o+s.d : o+s.d]
}

// put stores row as thread t's k-th, adding a block when the thread's
// are full (or were sized for narrower rows).
func (s *Rows) put(t, k int, row []float64) {
	bs := s.blocks[t]
	b := k >> blockShift
	if b == len(bs) {
		bs = append(bs, nil)
		s.blocks[t] = bs
	}
	if len(bs[b]) < s.d<<blockShift {
		bs[b] = make([]float64, s.d<<blockShift)
	}
	copy(s.slot(t, k), row)
}

// runPass1 maintains the thread's β-queue as a max-heap of L1 norms with
// a parallel dense row-major copy of the queued rows, so the per-point
// queue test scans β·d contiguous, L1-cache-resident floats through the
// flat run kernel instead of β scattered source rows. Heap swaps move the
// dense rows along.
//
// Once the queue is full, a row is tested against it before its norm is
// taken: one with ≥ k queue dominators is dropped there, and would have
// added nothing to the queue as a filter (DESIGN.md §9, "Pre-filter
// soundness"). A surviving row gets its norm, replaces the queue's
// largest point if its norm is smaller, and becomes a candidate either
// way, its loaded row stored beside it (Rows) up to the thread's
// storeShare. The test takes the short-circuit kernel body, which is
// faster when most queue rows dominate the probe (correlated data, where
// most rows are pruned). It is slower where most are incomparable, but
// there the filter is a small share of the run (DESIGN.md §2).
//
// On the identity view at d = 8 and β = 8, where the CPU has AVX-512,
// the full queue's test is point.Scan8 instead: it holds the queue in
// registers and skips every row up to the next one the queue does not
// prune, with the short-circuit body's decisions and test counts. The
// queue then keeps a column-major copy for it, which the heap moves
// update along with the dense rows.
func (r *Runner) runPass1(tid, lo, hi int) {
	v, beta, k := &r.v, r.beta, r.k
	d := v.D()
	qu := queue{
		hl:    r.qheapL[tid*beta : (tid+1)*beta],
		dense: r.qdense[tid*beta*d : (tid+1)*beta*d],
		d:     d,
	}
	var src []float64
	if r.scan8 {
		qu.cols = (*[64]float64)(r.qcols[tid*64 : (tid+1)*64])
		src = v.Flat()
	}
	cand, cl1 := r.cand, r.cl1
	keep := (hi - lo) / storeShare
	var buf [point.MaxDims]float64
	cnt, w := 0, lo
	var localDTs uint64
	for i := lo; i < hi; i++ {
		if cnt == beta && qu.cols != nil {
			if i += point.Scan8(qu.cols, src[i*8:hi*8], k, &localDTs); i == hi {
				break
			}
		}
		q := v.Load(i, buf[:])
		if cnt == beta && qu.cols == nil && point.CountDominatorsInFlatRunShortCircuit(qu.dense, d, 0, cnt, q, k, &localDTs) >= k {
			continue
		}
		qL1 := point.L1(q)
		switch {
		case cnt < beta:
			qu.put(cnt, qL1, q)
			qu.siftUp(cnt)
			cnt++
		case qL1 < qu.hl[0]:
			// i replaces the queue's largest point; the evicted point is
			// already on the candidate list and is re-tested in pass 2.
			qu.put(0, qL1, q)
			qu.siftDown()
		}
		cand[w], cl1[w] = i, qL1
		if w-lo < keep {
			r.rows.put(tid, w-lo, q)
		}
		w++
	}
	r.rows.over[tid] = w-lo > keep
	r.qcount[tid] = cnt
	r.segLo[tid], r.segN[tid] = lo, w-lo
	if r.dts != nil {
		r.dts.Inc(tid, localDTs)
	}
}

// queue is one thread's β-queue: a max-heap of L1 norms with the rows in
// heap order, row-major in dense and, when pass 1 takes point.Scan8,
// column-major in cols too (cols[c*8+s] is coordinate c of slot s).
// Every heap move updates both copies, so neither is rebuilt per row.
type queue struct {
	hl    []float64
	dense []float64
	cols  *[64]float64
	d     int
}

// put writes row and its norm into slot s.
func (qu *queue) put(s int, l1 float64, row []float64) {
	qu.hl[s] = l1
	copy(qu.dense[s*qu.d:(s+1)*qu.d], row)
	if qu.cols != nil {
		for c, x := range row {
			qu.cols[c*8+s] = x
		}
	}
}

func (qu *queue) swap(a, b int) {
	hl, dense, d := qu.hl, qu.dense, qu.d
	hl[a], hl[b] = hl[b], hl[a]
	for c := 0; c < d; c++ {
		dense[a*d+c], dense[b*d+c] = dense[b*d+c], dense[a*d+c]
	}
	if cols := qu.cols; cols != nil {
		for c := 0; c < 8; c++ {
			cols[c*8+a], cols[c*8+b] = cols[c*8+b], cols[c*8+a]
		}
	}
}

// siftUp restores the heap after slot c was filled.
func (qu *queue) siftUp(c int) {
	for c > 0 {
		p := (c - 1) / 2
		if qu.hl[p] >= qu.hl[c] {
			return
		}
		qu.swap(p, c)
		c = p
	}
}

// siftDown restores the heap after its root was replaced.
func (qu *queue) siftDown() {
	hl := qu.hl
	n := len(hl)
	c := 0
	for {
		l, rt := 2*c+1, 2*c+2
		big := c
		if l < n && hl[l] > hl[big] {
			big = l
		}
		if rt < n && hl[rt] > hl[big] {
			big = rt
		}
		if big == c {
			return
		}
		qu.swap(c, big)
		c = big
	}
}

// runPass2 tests the thread's range of the candidate list against the
// queue union, compacting the survivors, and their stored rows if the
// call kept them, to the front of the range.
func (r *Runner) runPass2(tid, lo, hi int) {
	k := r.k
	d := r.v.D()
	ql1, qrows := r.ql1, r.qrows
	nq := len(ql1)
	v, cand, cl1, rows := &r.v, r.cand, r.cl1, &r.rows
	var buf [point.MaxDims]float64
	w := lo
	var localDTs uint64
	for j := lo; j < hi; j++ {
		i, myL1 := cand[j], cl1[j]
		// Scan the queue points with strictly smaller L1 (the cut-off in
		// the Runner comment); ql1 is ascending, so binary-search the
		// cutoff and scan the prefix.
		a, b := 0, nq
		for a < b {
			mid := int(uint(a+b) >> 1)
			if ql1[mid] < myL1 {
				a = mid + 1
			} else {
				b = mid
			}
		}
		var q []float64
		if rows.stored {
			q = rows.Row(j)
		} else {
			q = v.Load(i, buf[:])
		}
		if point.CountDominatorsInFlatRun(qrows, d, 0, a, q, k, &localDTs) >= k {
			continue
		}
		cand[w], cl1[w] = i, myL1
		if w != j && rows.stored {
			copy(rows.Row(w), q)
		}
		w++
	}
	r.segLo[tid], r.segN[tid] = lo, w-lo
	if r.dts != nil {
		r.dts.Inc(tid, localDTs)
	}
}

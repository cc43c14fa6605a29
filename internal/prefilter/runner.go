// Package prefilter implements the two-pass parallel pre-filter of the
// Hybrid algorithm (Section VI-A1 of the paper).
//
// Most datasets contain points dominated by a large share of the input;
// the pre-filter removes them cheaply before the heavier initialization
// work (pivot selection, sorting). Each thread keeps a queue of the β
// points with smallest L1 norm it has seen; in a second pass the points
// its queue could not prune are tested against the union of the
// per-thread queues.
package prefilter

import (
	"math"

	"skybench/internal/par"
	"skybench/internal/point"
	"skybench/internal/stats"
)

// DefaultBeta is the queue capacity β = 8 the paper configured
// empirically (footnote 3; appreciable impact only on correlated data).
const DefaultBeta = 8

// Runner is a reusable, allocation-free implementation of the two-pass
// pre-filter. All scratch (per-thread β-queues and candidate segments,
// the gathered queue union, the survivor list) persists across calls,
// and both passes run on a caller-supplied worker team leased from a
// persistent pool, so a steady-state Filter call performs no
// allocations and no goroutine spawns.
//
// Each thread owns its state until one final join. Pass 1 is the one
// sweep of a Hybrid run that touches every input row, so everything that
// needs the whole input happens inside it, once per row: the row is
// loaded through the preference view (point.View — the transform is
// never staged) and, once the thread's β-queue is full, tested against
// it. Rows the queue prunes leave no trace, not even a norm: only a
// surviving row (or one filling the queue) has its L1 norm taken,
// replaces the queue's largest point if its norm is smaller, and is
// appended to the thread's candidate segment (Rows) with its norm and,
// while the thread's candidates are sparse (storeShare), its loaded row.
// Segments are sized by the candidates: nothing in the filter is
// proportional to n. Where the rows are kept, they are the last read of
// the source for the rows pass 1 keeps: pass 2 tests the stored rows,
// and the caller gathers its working set from the Rows Filter returns.
// Where the candidates are dense, pass 2 and the caller load them
// through the view again.
//
// The union of the queues is gathered from the queues' dense copies into
// a row-major matrix sorted by L1 norm. In pass 2 each thread tests its
// own segment against it, scanning the contiguous union run with each
// candidate's coordinates hoisted into registers
// (point.CountDominatorsInFlatRun at budget k) and stopping at the first
// union point whose L1 norm is ≥ the candidate's, the paper's footnote 2
// cut-off. A point with a larger computed norm never dominates the
// candidate, but one with an equal norm can (DESIGN.md §9, "Numeric
// precondition"). The filter only prunes, so a dominator it misses
// leaves one more survivor for the exact phases; the cut-off also keeps
// a queue point from testing itself. Stored rows at width 8 take
// point.UnionScan8 instead, with the same tests (runPass2). Each thread
// compacts its segment in place, and one join writes the survivors'
// indices and norms in row order.
type Runner struct {
	qdense []float64 // threads*beta*d queue rows, β unordered slots per thread
	qnorm  []float64 // threads*beta L1 norms of the queue rows, by slot
	qcols  []float64 // threads*64: each queue column-major by source column, when pass 1 takes point.Scan8
	qcount []int
	allq   []int     // queue slots of the union, sorted by L1
	qrows  []float64 // gathered union rows matching allq order
	ql1    []float64 // union L1 norms matching allq order
	qu8    []float64 // the union laid out for point.UnionScan8, when pass 2 takes it

	rows Rows      // the threads' candidate segments
	surv []int     // survivors' row indices, ascending, written by join
	sl1  []float64 // survivors' L1 norms

	// Parallel-region parameters, set by Filter before each fan-out.
	v     point.View
	beta  int
	k     int  // dominator budget: prune only points with ≥ k dominators
	scan8 bool // pass 1 tests full queues with point.Scan8
	scanU bool // pass 2 tests stored candidates with point.UnionScan8
	dts   *stats.DTCounters

	pass1 func(tid, lo, hi int)
	pass2 func(tid, lo, hi int)
}

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
// team, whose size is the filter's thread count (one β-queue and one
// candidate segment per thread). dts, when non-nil, accumulates
// dominance tests per thread. The passes run without a cancellation flag
// on purpose: skipping one would leave the queues and segments of a
// previous (possibly larger) run to be consumed below.
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
	r.qnorm = grow(r.qnorm, threads*beta)
	r.allq = grow(r.allq, threads*beta)
	r.qcount = grow(r.qcount, threads)
	r.rows.reset(d, threads)
	src8, _ := v.Source8()
	r.scan8 = point.VectorBodies() && beta == 8 && src8 != nil
	if r.scan8 {
		r.qcols = grow(r.qcols, threads*64)
	}
	// A fan-out over fewer rows than threads leaves the idle threads'
	// queues untouched, so they are emptied first (reset empties the
	// segments).
	clear(r.qcount)

	r.v, r.beta, r.k, r.dts = v, beta, k, dts

	// Pass 1: load, test against the thread's full β-queue, then norm
	// and queue update for the rows it does not prune.
	team.ForRangesCancel(threads, n, nil, r.pass1)
	r.rows.stored = true
	for _, s := range r.rows.segs[:threads] {
		r.rows.stored = r.rows.stored && !s.over
	}

	// Gather the queue union, sort it by L1 ascending, materialize the
	// rows contiguously. The union holds ≤ threads·β points, so an
	// insertion sort is plenty.
	hl := r.qnorm
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
	r.scanU = point.VectorBodies() && d == 8 && r.rows.stored
	for i, s := range allq {
		copy(r.qrows[i*d:(i+1)*d], r.qdense[s*d:(s+1)*d])
		r.ql1[i] = hl[s]
		r.scanU = r.scanU && !math.IsNaN(hl[s])
	}
	if r.scanU {
		r.qu8 = point.LayoutUnion8(r.qu8, r.qrows, r.ql1)
	}

	// Pass 2: each thread's segment against the queue union, one range
	// per thread.
	team.ForRangesCancel(threads, threads, nil, r.pass2)
	return r.join()
}

// grow returns s resized to n, reallocating only when capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// join writes the survivors' indices and norms, segment after segment,
// and each segment's first list position, which Rows.Row addresses the
// rows by. Static ranges make thread order row order, so the list is
// ascending by row.
func (r *Runner) join() ([]int, []float64, *Rows) {
	s := &r.rows
	ns := 0
	for t := range s.first {
		s.first[t] = ns
		ns += s.segs[t].n
	}
	r.surv, r.sl1 = grow(r.surv, ns), grow(r.sl1, ns)
	for t, w := range s.first {
		sg := &s.segs[t]
		for b := 0; b<<blockShift < sg.n; b++ {
			m := min(sg.n-b<<blockShift, 1<<blockShift)
			copy(r.surv[w:w+m], sg.blocks[b].idx[:m])
			copy(r.sl1[w:w+m], sg.blocks[b].l1[:m])
			w += m
		}
	}
	if !s.stored {
		return r.surv, r.sl1, nil
	}
	return r.surv, r.sl1, s
}

// blockShift sets the candidates a segment block holds, 1 << blockShift.
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

// Rows is the pre-filter's candidate store: one segment per thread,
// holding the thread's candidates in list order — row index, L1 norm
// and, while the call keeps rows, the row as pass 1 loaded it through
// the view. Each segment keeps its candidates in fixed-size blocks,
// which a new block extends without moving what is stored, so a segment
// grows with its candidates and never copies them: a growing contiguous
// store would leave each of its outgrown copies behind as garbage,
// several times the candidates' size. Pass 2 compacts each segment in
// place; after the join, Row addresses the survivors' rows by list
// position.
type Rows struct {
	d      int
	stored bool      // every thread kept its rows: none is over
	first  []int     // per thread: list position of its first survivor
	segs   []segment // per thread; only the first len(first) are this call's
}

// segment is one thread's candidates.
type segment struct {
	n      int  // candidates, then survivors once pass 2 compacted them
	over   bool // candidates past the thread's storeShare: rows not kept
	blocks []*block
}

// block holds 1 << blockShift candidates of a segment: their row
// indices, norms and, once the thread stores a row in it, rows of d
// values.
type block struct {
	idx  [1 << blockShift]int
	l1   [1 << blockShift]float64
	rows []float64
}

// reset empties the store for rows of d values from threads threads.
func (s *Rows) reset(d, threads int) {
	s.d = d
	s.first = grow(s.first, threads)
	for len(s.segs) < threads {
		s.segs = append(s.segs, segment{})
	}
	for t := range s.first {
		s.segs[t].n, s.segs[t].over = 0, false
	}
}

// Row returns the row at list position i, d values that alias the
// store.
func (s *Rows) Row(i int) []float64 {
	t := len(s.first) - 1
	for s.first[t] > i {
		t--
	}
	return s.segs[t].row(i-s.first[t], s.d)
}

// put writes row index i and norm l1 as candidate k, adding a block
// when the segment's are full.
func (sg *segment) put(k, i int, l1 float64) {
	if k>>blockShift == len(sg.blocks) {
		sg.blocks = append(sg.blocks, new(block))
	}
	b, o := sg.blocks[k>>blockShift], k&(1<<blockShift-1)
	b.idx[o], b.l1[o] = i, l1
}

// at returns candidate k's row index and norm.
func (sg *segment) at(k int) (int, float64) {
	b, o := sg.blocks[k>>blockShift], k&(1<<blockShift-1)
	return b.idx[o], b.l1[o]
}

// store writes candidate k's row, giving its block row storage when it
// has none (or had it for narrower rows).
func (sg *segment) store(k, d int, row []float64) {
	if b := sg.blocks[k>>blockShift]; len(b.rows) < d<<blockShift {
		b.rows = make([]float64, d<<blockShift)
	}
	copy(sg.row(k, d), row)
}

// move copies candidate j, and its stored row where the call keeps
// rows, to list position w ≤ j, the compaction of pass 2.
func (sg *segment) move(w, j, d int, stored bool) {
	if w == j {
		return
	}
	i, l1 := sg.at(j)
	sg.put(w, i, l1)
	if stored {
		copy(sg.row(w, d), sg.row(j, d))
	}
}

// row returns the storage of candidate k's row, d values.
func (sg *segment) row(k, d int) []float64 {
	o := (k & (1<<blockShift - 1)) * d
	return sg.blocks[k>>blockShift].rows[o : o+d : o+d]
}

// runPass1 keeps the thread's β-queue as β unordered slots with a dense
// row-major copy of the queued rows, so the per-point queue test scans
// β·d contiguous, L1-cache-resident floats through the flat run kernel
// instead of β scattered source rows.
//
// Once the queue is full, a row is tested against it before its norm is
// taken: one with ≥ k queue dominators is dropped there, and would have
// added nothing to the queue as a filter (DESIGN.md §9, "Pre-filter
// soundness"). A surviving row gets its norm, replaces the queue's
// largest point if its norm is smaller, and becomes a candidate either
// way, its loaded row stored beside it up to the thread's storeShare.
// The test is point.CountDominatorsInFlatRun, whose d = 4 and d = 8
// bodies short-circuit: faster when most queue rows dominate the probe
// (correlated data, where most rows are pruned), slower where most are
// incomparable, but there the filter is a small share of the run
// (DESIGN.md §2).
//
// On a view of an 8-column source that negates no column (point.View's
// Source8: the identity, or one that only drops columns) and β = 8,
// where the vector bodies are on (point.VectorBodies), the full queue's
// test is point.Scan8 instead: it holds the queue in registers and skips
// every row up to the next one the queue does not prune, with the Go
// body's decisions and test counts. It reads the source rows as they
// are, so only the rows it stops on are loaded through the view. The
// queue then keeps a column-major copy by source column, which every
// slot write updates along with the dense row, and whose dropped columns
// hold NaN: Scan8's two compares are both true on an unordered pair, so
// a NaN column is neither worse nor better, and dominance over the 8
// columns is dominance over the kept ones, whatever a row holds in the
// others.
func (r *Runner) runPass1(tid, lo, hi int) {
	v, beta, k := &r.v, r.beta, r.k
	d := v.D()
	qu := queue{
		l1:    r.qnorm[tid*beta : (tid+1)*beta],
		dense: r.qdense[tid*beta*d : (tid+1)*beta*d],
		d:     d,
	}
	var src []float64
	if r.scan8 {
		qu.cols = (*[64]float64)(r.qcols[tid*64 : (tid+1)*64])
		src, qu.srcCol = v.Source8()
		// The slot writes fill the kept columns before the queue is full.
		for c := range qu.cols {
			qu.cols[c] = math.NaN()
		}
	}
	sg := &r.rows.segs[tid]
	keep := (hi - lo) / storeShare
	var buf [point.MaxDims]float64
	w := 0
	var localDTs uint64
	for i := lo; i < hi; i++ {
		full := qu.n == beta
		if full && qu.cols != nil {
			if i += point.Scan8(qu.cols, src[i*8:hi*8], k, &localDTs); i == hi {
				break
			}
		}
		q := v.Load(i, buf[:])
		if full && qu.cols == nil && point.CountDominatorsInFlatRun(qu.dense, d, 0, beta, q, k, &localDTs) >= k {
			continue
		}
		qL1 := point.L1(q)
		qu.offer(qL1, q)
		sg.put(w, i, qL1)
		if w < keep {
			sg.store(w, d, q)
		}
		w++
	}
	sg.n, sg.over = w, w > keep
	r.qcount[tid] = qu.n
	if r.dts != nil {
		r.dts.Inc(tid, localDTs)
	}
}

// queue is one thread's β-queue: β unordered slots of rows and their
// norms, row-major in dense and, when pass 1 takes point.Scan8,
// column-major by source column in cols too (cols[srcCol[k]*8+s] is
// view coordinate k of slot s; a dropped column's entries are NaN).
type queue struct {
	l1     []float64
	dense  []float64
	cols   *[64]float64
	srcCol []int // source column of each view column, when cols is set
	d      int
	n      int // filled slots
	top    int // the filled slot with the largest norm, the first of equals
}

// offer puts a row the queue did not prune, with its norm l1, into a
// free slot, or over the largest point if l1 is smaller; the evicted
// point is already a candidate and is re-tested in pass 2. A write
// updates both copies of its one slot and rescans the β norms for the
// largest. Writes after the queue fills are rare, about β·ln(n/β) a
// thread on rows in random order, so the rescan costs nothing a heap
// would save.
func (qu *queue) offer(l1 float64, row []float64) {
	s := qu.n
	switch {
	case s < len(qu.l1):
		qu.n++
	case l1 < qu.l1[qu.top]:
		s = qu.top
	default:
		return
	}
	qu.l1[s] = l1
	copy(qu.dense[s*qu.d:(s+1)*qu.d], row)
	if qu.cols != nil {
		for k, x := range row {
			qu.cols[qu.srcCol[k]*8+s] = x
		}
	}
	qu.top = 0
	for t, x := range qu.l1[:qu.n] {
		if x > qu.l1[qu.top] {
			qu.top = t
		}
	}
}

// runPass2 tests thread tid's segment against the queue union and
// compacts the survivors, and their stored rows if the call kept them,
// to the front of the segment. The region has one range per thread.
//
// Where the call kept rows at view width 8 and the union holds no NaN
// norm, with the vector bodies on (point.VectorBodies), each segment
// block's stored rows and norms go to point.UnionScan8 instead, which
// skips every candidate up to the next survivor with this loop's
// decisions and test counts: the union is laid out once per call in
// chunks of 8 slots (point.LayoutUnion8), and each candidate tests only
// the slots whose norm is below its own, the same cut-off as the binary
// search, which it is where the norms ascend, as they do without a NaN.
func (r *Runner) runPass2(tid, _, _ int) {
	k := r.k
	d := r.v.D()
	ql1, qrows := r.ql1, r.qrows
	nq := len(ql1)
	v, stored, sg := &r.v, r.rows.stored, &r.rows.segs[tid]
	var buf [point.MaxDims]float64
	w := 0
	var localDTs uint64
	if r.scanU {
		for b := 0; b<<blockShift < sg.n; b++ {
			blk, m := sg.blocks[b], min(sg.n-b<<blockShift, 1<<blockShift)
			for o := 0; o < m; o++ {
				if o += point.UnionScan8(r.qu8, blk.rows[o*8:m*8], blk.l1[o:m], k, &localDTs); o == m {
					break
				}
				sg.move(w, b<<blockShift+o, d, true)
				w++
			}
		}
	} else {
		for j := 0; j < sg.n; j++ {
			i, myL1 := sg.at(j)
			// Scan the union points with strictly smaller L1 (the cut-off in
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
			if stored {
				q = sg.row(j, d)
			} else {
				q = v.Load(i, buf[:])
			}
			if point.CountDominatorsInFlatRun(qrows, d, 0, a, q, k, &localDTs) >= k {
				continue
			}
			sg.move(w, j, d, stored)
			w++
		}
	}
	sg.n = w
	if r.dts != nil {
		r.dts.Inc(tid, localDTs)
	}
}

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
	"skybench/internal/par"
	"skybench/internal/point"
	"skybench/internal/stats"
)

// DefaultBeta is the queue capacity β = 8 the paper configured
// empirically (footnote 3; appreciable impact only on correlated data).
const DefaultBeta = 8

// Runner is a reusable, allocation-free implementation of the two-pass
// pre-filter. All scratch (per-thread β-queues and candidate segments,
// the gathered queue union) persists across calls,
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
// filed in the thread's candidate segment (Rows) with its norm and,
// while the thread's candidates are sparse (storeShare), its loaded row.
// A thread that stops filtering (stopStretch) files no more rows: its
// segment records the untested rest of its range as one row range after
// its filed candidates. Segments are sized by the filed candidates:
// nothing in the filter is proportional to n. Filter hands the segments
// themselves to the caller (Rows), which gathers its working set from
// them in list order: each position's row index and, where the thread
// that filed it kept its row, the row and its norm, the last read of
// the source for that row: pass 2 tests the stored rows, and the caller
// copies them. Every other position, an unstored candidate or a range
// row, the caller loads through the view and norms, as it does every
// row of a run without the filter.
//
// The queues' slots are gathered, sorted by L1 norm and pruned into the
// union (point.Union), a row-major matrix in ascending norm order. In
// pass 2 each thread tests its own segment against it: each candidate
// against the union points whose norm is below its own, the paper's
// footnote 2 cut-off (point.Union documents it). A segment with a range
// skips pass 2. Each thread compacts its segment in place, and one join
// numbers the segments' survivors in row order.
type Runner struct {
	queues []point.Queue // one β-queue per thread
	slots  []slot        // the queues' filled slots, sorted by L1
	qrows  []float64     // the union's rows, in ascending L1 order
	ql1    []float64     // the union's norms
	union  point.Union   // over qrows and ql1

	rows Rows // the threads' candidate segments

	// Parallel-region parameters, set by Filter before each fan-out.
	v    point.View
	beta int
	k    int  // dominator budget: prune only points with ≥ k dominators
	stop bool // a thread whose queue prunes too little stops filtering
	dts  *stats.DTCounters

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

// Filter removes easily-dominated rows of v and returns the survivors,
// in their original row order: Rows.At(i) is survivor i's row index and,
// where pass 1 kept its row (storeShare), its row and L1 norm, both
// under the view's transform. The Rows alias the Runner and are
// valid until the next call; Filter returns nil on an empty view.
// beta ≤ 0 selects DefaultBeta. Both passes run on the whole of team,
// whose size is the filter's thread count (one β-queue and one
// candidate segment per thread). dts, when non-nil, accumulates
// dominance tests per thread. The passes run without a cancellation flag
// on purpose: skipping one would leave the queues and segments of a
// previous (possibly larger) run to be consumed below.
//
// stop lets each thread give the filter up on its range where its queue
// prunes too little (stopStretch, stopShare), handing the rest of its
// range over untested as a row range: the shipped Hybrid passes true,
// the paper's (NoCodes) false, which filters every row.
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
func (r *Runner) Filter(v point.View, beta, k int, stop bool, team *par.Team, dts *stats.DTCounters) *Rows {
	n := v.N()
	if n == 0 {
		return nil
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
	r.v, r.beta, r.k, r.stop, r.dts = v, beta, k, stop, dts
	r.rows.reset(d, threads)
	// A fan-out over fewer rows than threads leaves the idle threads'
	// queues untouched, so every queue is emptied first (reset empties
	// the segments).
	if len(r.queues) < threads {
		r.queues = make([]point.Queue, threads)
	}
	for t := range r.queues[:threads] {
		r.queues[t].Reset(&r.v, beta)
	}

	// Pass 1: load, test against the thread's full β-queue, then norm
	// and queue update for the rows it does not prune.
	team.ForRangesCancel(threads, n, nil, r.pass1)
	r.rows.cands = 0
	for _, s := range r.rows.segs[:threads] {
		r.rows.cands += s.n + s.hi - s.lo
	}

	// Gather the queue union and sort it by L1 ascending. The union
	// holds ≤ threads·β points, so an insertion sort is plenty.
	slots := r.slots[:0]
	for t := range r.queues[:threads] {
		qu := &r.queues[t]
		for i := range qu.Len() {
			l1, row := qu.Slot(i)
			slots = append(slots, slot{l1, row})
		}
	}
	for i := 1; i < len(slots); i++ {
		x := slots[i]
		j := i - 1
		for j >= 0 && slots[j].l1 > x.l1 {
			slots[j+1] = slots[j]
			j--
		}
		slots[j+1] = x
	}
	r.slots = slots
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
	r.qrows, r.ql1 = r.qrows[:0], r.ql1[:0]
	for _, x := range slots {
		if point.CountDominatorsInFlatRun(r.qrows, d, 0, len(r.ql1), x.row, k, &unionDTs) < k {
			r.qrows, r.ql1 = append(r.qrows, x.row...), append(r.ql1, x.l1)
		}
	}
	if dts != nil {
		dts.Inc(0, unionDTs)
	}
	r.union.Reset(r.qrows, r.ql1, d)

	// Pass 2: each thread's segment against the queue union, one range
	// per thread.
	team.ForRangesCancel(threads, threads, nil, r.pass2)
	r.rows.join()
	return &r.rows
}

// slot is one filled queue slot: its norm and its row, which aliases
// the queue.
type slot struct {
	l1  float64
	row []float64
}

// grow returns s resized to n, reallocating only when capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// blockShift sets the candidates a segment block holds, 1 << blockShift.
const blockShift = 10

// storeShare bounds the row store: a thread stores the rows of at most
// 1/storeShare of the rows it scans, and once its candidates pass that
// share, its segment keeps no rows (over), and pass 2 and the caller's
// gather load its candidates through the view. Sparse candidates (on
// correlated data, a few percent of the rows) are scattered over the
// source, and each re-load is a cache miss that the store saves. Dense
// ones (on anticorrelated data, nearly every row) are re-read almost in
// order, so a store would buy little and hold a second copy of the
// input.
const storeShare = 8

// The stop rule. A pass-1 thread counts the rows its queue prunes among
// the stopStretch after its first β; if they are fewer than
// 1/stopShare of them, the filter does not pay on that thread's rows
// (anticorrelated data, where the queue's points are incomparable with
// nearly every row), and the thread stops: its segment records the rest
// of its range as a row range, which pass 1 does not read, and skips
// pass 2. Pruning less is sound: the exact phases test every candidate
// (DESIGN.md §9). On the shapes BenchmarkPrefilterPays prices, at T = 2,
// the queue prunes at most 2.6 % of the stretch on anticorrelated rows
// (none at k = 4) and at least 13 % on independent and correlated ones
// (independent 50 000 × 6 at k = 4 is the least), so the threshold,
// 6.25 %, sits between the two by a factor of 2 on each side.
const (
	stopStretch = 2048
	stopShare   = 16
)

// Rows is the pre-filter's candidate store: one segment per thread,
// holding the thread's filed candidates in list order — row index, L1
// norm and, while the thread keeps rows, the row as pass 1 loaded it
// through the view — and then, if the thread stopped filtering, the
// rows of its untested rest, which have neither. Each segment keeps its
// filed candidates in fixed-size blocks,
// which a new block extends without moving what is stored, so a segment
// grows with its candidates and never copies them: a growing contiguous
// store would leave each of its outgrown copies behind as garbage,
// several times the candidates' size. Pass 2 compacts each segment in
// place; after the join, Len and At address the survivors by list
// position, so the segments are the one survivor list.
type Rows struct {
	d     int
	cands int       // candidates pass 1 kept, range rows included
	n     int       // survivors, after the join
	first []int     // per thread: list position of its first survivor
	segs  []segment // per thread; only the first len(first) are this call's
}

// segment is one thread's candidates: n filed ones, then the range
// lo..hi−1 (empty unless the thread stopped filtering).
type segment struct {
	n      int  // filed candidates, then survivors once pass 2 compacted them
	over   bool // filed candidates past the thread's storeShare: rows not kept
	lo, hi int  // the untested rest of a thread that stopped filtering
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
		s.segs[t].n, s.segs[t].over, s.segs[t].lo, s.segs[t].hi = 0, false, 0, 0
	}
}

// join numbers the survivors after pass 2: each segment's first list
// position, segment after segment. Static ranges make thread order row
// order, so the list is ascending by row.
func (s *Rows) join() {
	s.n = 0
	for t := range s.first {
		s.first[t] = s.n
		s.n += s.segs[t].n + s.segs[t].hi - s.segs[t].lo
	}
}

// Len returns the number of survivors.
func (s *Rows) Len() int { return s.n }

// Candidates returns the number of rows pass 1 kept, a stopped thread's
// range included: the survivors and the rows pass 2 pruned.
func (s *Rows) Candidates() int { return s.cands }

// At returns the survivor at list position i: its row index and, where
// the thread that filed it kept its row, that row, d values that alias
// the store, and its L1 norm. A range row, or a candidate whose thread
// kept no rows, comes with neither (nil and 0): the caller loads it
// through the view.
func (s *Rows) At(i int) (idx int, l1 float64, row []float64) {
	t := len(s.first) - 1
	for s.first[t] > i {
		t--
	}
	sg, k := &s.segs[t], i-s.first[t]
	if k >= sg.n {
		return sg.lo + k - sg.n, 0, nil
	}
	idx, l1 = sg.at(k)
	if sg.over {
		return idx, 0, nil
	}
	return idx, l1, sg.row(k, s.d)
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

// move copies candidate j, and its stored row where the segment keeps
// rows, to list position w ≤ j, the compaction of pass 2.
func (sg *segment) move(w, j, d int) {
	if w == j {
		return
	}
	i, l1 := sg.at(j)
	sg.put(w, i, l1)
	if !sg.over {
		copy(sg.row(w, d), sg.row(j, d))
	}
}

// row returns the storage of candidate k's row, d values.
func (sg *segment) row(k, d int) []float64 {
	o := (k & (1<<blockShift - 1)) * d
	return sg.blocks[k>>blockShift].rows[o : o+d : o+d]
}

// runPass1 runs pass 1 over thread tid's range with the thread's
// β-queue (point.Queue). Once the queue is full, a row is tested against
// it before its norm is taken: one with ≥ k queue dominators is dropped
// there, and would have added nothing to the queue as a filter
// (DESIGN.md §9, "Pre-filter soundness"). A surviving row gets its norm,
// is offered to the queue, and becomes a candidate either way, its
// loaded row stored beside it up to the thread's storeShare.
//
// With the stop rule on, the range runs in two parts: filterRows up to
// the stretch's end, then either filterRows again or, where the stretch
// was pruned too little, nothing: the rest is the segment's range.
func (r *Runner) runPass1(tid, lo, hi int) {
	qu := &r.queues[tid]
	sg := &r.rows.segs[tid]
	keep := (hi - lo) / storeShare
	var localDTs uint64
	// The stop rule is decided on the stopStretch rows after the first
	// β rows, which fill the queue and are all candidates.
	end := hi
	if r.stop && lo+r.beta+stopStretch < hi {
		end = lo + r.beta + stopStretch
	}
	w := r.filterRows(qu, sg, lo, end, 0, keep, &localDTs)
	if end < hi {
		if pruned := stopStretch - (w - r.beta); pruned*stopShare < stopStretch {
			sg.lo, sg.hi = end, hi
		} else {
			w = r.filterRows(qu, sg, end, hi, w, keep, &localDTs)
		}
	}
	sg.n, sg.over = w, w > keep
	if r.dts != nil {
		r.dts.Inc(tid, localDTs)
	}
}

// filterRows runs pass 1 over rows i..hi−1 of a thread's range: each
// row the queue qu does not prune is offered to it and appended to sg
// as candidate w onward, its row stored while w < keep. It returns the
// candidates sg then holds.
func (r *Runner) filterRows(qu *point.Queue, sg *segment, i, hi, w, keep int, dts *uint64) int {
	d := r.v.D()
	var buf [point.MaxDims]float64
	for ; ; i++ {
		var q []float64
		if i, q = qu.Scan(i, hi, r.k, buf[:], dts); i == hi {
			return w
		}
		qL1 := point.L1(q)
		qu.Offer(qL1, q)
		sg.put(w, i, qL1)
		if w < keep {
			sg.store(w, d, q)
		}
		w++
	}
}

// runPass2 tests thread tid's segment against the queue union and
// compacts the survivors, and their stored rows if the segment kept
// them, to the front of the segment. The region has one range per
// thread; a segment with a range (its thread stopped filtering in pass
// 1) stays as it is. A segment that kept its rows hands each block's
// stored rows and norms to point.Union.Scan, which skips every
// candidate up to the next survivor; one that kept none (over) loads
// each candidate through the view and counts it with point.Union.Count.
func (r *Runner) runPass2(tid, _, _ int) {
	sg := &r.rows.segs[tid]
	if sg.hi > sg.lo {
		return
	}
	k, d := r.k, r.v.D()
	var buf [point.MaxDims]float64
	w := 0
	var localDTs uint64
	for b := 0; b<<blockShift < sg.n; b++ {
		blk, m := sg.blocks[b], min(sg.n-b<<blockShift, 1<<blockShift)
		for o := 0; o < m; o++ {
			if sg.over {
				if r.union.Count(r.v.Load(blk.idx[o], buf[:]), blk.l1[o], k, &localDTs) >= k {
					continue
				}
			} else if o += r.union.Scan(blk.rows[o*d:m*d], blk.l1[o:m], k, &localDTs); o == m {
				break
			}
			sg.move(w, b<<blockShift+o, d)
			w++
		}
	}
	sg.n = w
	if r.dts != nil {
		r.dts.Inc(tid, localDTs)
	}
}

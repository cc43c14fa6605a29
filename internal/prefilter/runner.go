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
	"skybench/internal/par"
	"skybench/internal/point"
	"skybench/internal/stats"
)

// DefaultBeta is the queue capacity β = 8 the paper configured
// empirically (footnote 3; appreciable impact only on correlated data).
const DefaultBeta = 8

// Runner is a reusable, allocation-free implementation of the two-pass
// pre-filter. All scratch (per-thread β-queues, the candidate list, the
// gathered queue matrix) persists across calls, and both passes run on a
// caller-supplied worker team leased from a persistent pool, so a
// steady-state Filter call performs no allocations and no goroutine
// spawns.
//
// Pass 1 is the one sweep of a Hybrid run that touches every input row,
// so everything that needs the whole input happens inside it, once per
// row: the row is loaded through the preference view (point.View — the
// transform is never staged) and, once the thread's β-queue is full,
// tested against it. Rows the queue prunes leave no trace, not even a
// norm: only a surviving row (or one filling the queue) has its L1 norm
// taken, replaces the queue's largest point if its norm is smaller, and
// is appended, with its norm, to the thread's segment of a candidate
// list. There is no per-row norm array and no per-row pruned bitmap:
// after pass 1 nothing is n-sized but the list's capacity, and only the
// candidates' share of that is ever written.
//
// The queues keep dense copies of their rows and norms, so the union is
// gathered from the queues themselves into a dense row-major matrix
// sorted by L1 norm. Pass 2 fans out over the candidates alone, re-loads
// each through the view, scans the contiguous queue run with the probe's
// coordinates hoisted into registers (point.CountDominatorsInFlatRun at
// budget k) and stops at the first queue point whose L1 norm is ≥ the
// probe's, the paper's footnote 2 cut-off. A point with a larger computed
// norm never dominates the probe, but one with an equal norm can
// (DESIGN.md §9, "Numeric precondition"). The filter only prunes, so a
// dominator it misses leaves one more survivor for the exact phases; the
// cut-off also keeps a queue point from testing itself. Each thread
// compacts its range of the list in place; joining the ranges yields the
// survivors.
type Runner struct {
	qdense []float64 // threads*beta*d queue rows, one max-heap by L1 per thread
	qheapL []float64 // threads*beta L1 norms of the queue rows, in heap order
	qcount []int
	allq   []int     // heap slots of the queue union, sorted by L1
	qrows  []float64 // gathered queue rows matching allq order
	ql1    []float64 // queue L1 norms matching allq order

	// Candidate rows and their L1 norms, ascending by row. Each pass
	// leaves one run per thread — segN[tid] entries from segLo[tid] —
	// which join closes up.
	cand  []int
	cl1   []float64
	segLo []int
	segN  []int

	// Parallel-region parameters, set by Filter before each fan-out.
	v    point.View
	beta int
	k    int // dominator budget: prune only points with ≥ k dominators
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

// Filter removes easily-dominated rows of v and returns the surviving row
// indices in their original order together with the survivors' L1 norms
// (under the view's transform). Both slices alias the Runner and are
// valid until the next call. beta ≤ 0 selects DefaultBeta. Both passes
// run on the whole of team, whose size is the filter's thread count (one
// β-queue per thread). dts, when non-nil, accumulates dominance tests per
// thread. The passes run without a
// cancellation flag on purpose: skipping one would leave the queue and
// segment bookkeeping of a previous (possibly larger) run to be consumed
// below.
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
func (r *Runner) Filter(v point.View, beta, k int, team *par.Team, dts *stats.DTCounters) ([]int, []float64) {
	n := v.N()
	if n == 0 {
		return nil, nil
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
	// A fan-out over fewer rows than threads leaves the idle threads'
	// entries untouched, so they are cleared before each pass.
	clear(r.qcount)
	clear(r.segN)

	r.v, r.beta, r.k, r.dts = v, beta, k, dts

	// Pass 1: load, test against the thread's full β-queue, then norm
	// and queue update for the rows it does not prune.
	team.ForRangesCancel(threads, n, nil, r.pass1)
	nc := r.join()

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
	ns := r.join()
	return r.cand[:ns], r.cl1[:ns]
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
// thread order row order, so the joined list is ascending by row.
func (r *Runner) join() int {
	w := 0
	for tid, n := range r.segN {
		if lo := r.segLo[tid]; lo != w {
			copy(r.cand[w:w+n], r.cand[lo:lo+n])
			copy(r.cl1[w:w+n], r.cl1[lo:lo+n])
		}
		w += n
	}
	return w
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
// way. The test takes the short-circuit kernel body, which is faster
// when most queue rows dominate the probe (correlated data, where most
// rows are pruned). It is slower where most are incomparable, but there
// the filter is a small share of the run (DESIGN.md §2).
func (r *Runner) runPass1(tid, lo, hi int) {
	v, beta, k := &r.v, r.beta, r.k
	d := v.D()
	hl := r.qheapL[tid*beta : (tid+1)*beta]
	dense := r.qdense[tid*beta*d : (tid+1)*beta*d]
	cand, cl1 := r.cand, r.cl1
	var buf [point.MaxDims]float64
	cnt, w := 0, lo
	var localDTs uint64
	for i := lo; i < hi; i++ {
		q := v.Load(i, buf[:])
		if cnt == beta && point.CountDominatorsInFlatRunShortCircuit(dense, d, 0, cnt, q, k, &localDTs) >= k {
			continue
		}
		qL1 := point.L1(q)
		switch {
		case cnt < beta:
			// Insert and sift up (max-heap by L1).
			hl[cnt] = qL1
			copy(dense[cnt*d:(cnt+1)*d], q)
			c := cnt
			cnt++
			for c > 0 {
				p := (c - 1) / 2
				if hl[p] >= hl[c] {
					break
				}
				heapSwap(hl, dense, d, p, c)
				c = p
			}
		case qL1 < hl[0]:
			// i replaces the queue's largest point; the evicted point is
			// already on the candidate list and is re-tested in pass 2.
			hl[0] = qL1
			copy(dense[:d], q)
			siftDown(hl, dense, d)
		}
		cand[w], cl1[w] = i, qL1
		w++
	}
	r.qcount[tid] = cnt
	r.segLo[tid], r.segN[tid] = lo, w-lo
	if r.dts != nil {
		r.dts.Inc(tid, localDTs)
	}
}

func heapSwap(hl, dense []float64, d, a, b int) {
	hl[a], hl[b] = hl[b], hl[a]
	for k := 0; k < d; k++ {
		dense[a*d+k], dense[b*d+k] = dense[b*d+k], dense[a*d+k]
	}
}

func siftDown(hl, dense []float64, d int) {
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
		heapSwap(hl, dense, d, c, big)
		c = big
	}
}

// runPass2 tests the thread's range of the candidate list against the
// queue union, compacting the survivors to the front of the range.
func (r *Runner) runPass2(tid, lo, hi int) {
	v, k := &r.v, r.k
	d := v.D()
	ql1, qrows := r.ql1, r.qrows
	nq := len(ql1)
	cand, cl1 := r.cand, r.cl1
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
		q := v.Load(i, buf[:])
		if point.CountDominatorsInFlatRun(qrows, d, 0, a, q, k, &localDTs) >= k {
			continue
		}
		cand[w], cl1[w] = i, myL1
		w++
	}
	r.segLo[tid], r.segN[tid] = lo, w-lo
	if r.dts != nil {
		r.dts.Inc(tid, localDTs)
	}
}

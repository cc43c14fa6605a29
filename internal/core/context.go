package core

import (
	"sync/atomic"

	"skybench/internal/par"
	"skybench/internal/pivot"
	"skybench/internal/point"
	"skybench/internal/prefilter"
	"skybench/internal/stats"
)

// Context holds everything the α-block driver behind Hybrid and Q-Flow
// needs across runs: per-thread dominance-test counters and every scratch
// array the algorithms previously reallocated per call (L1 norms, masks,
// code words, sort keys and permutations, block flags, the gathered
// working matrix, the global-skyline storage, radix-sort histograms, and
// the pre-filter's queues). After a warm-up call with a given workload
// shape, repeated Hybrid/QFlow calls perform zero steady-state
// allocations — the property a server answering millions of skyline
// queries needs.
//
// A run's parallel regions dispatch on the worker team its options name
// (HybridOptions.Team); an Engine leases one per run from its shared
// pool. The Context owns no threads of its own.
//
// A Context is not safe for concurrent use; create one per worker.
// Results returned by Hybrid/QFlow alias Context storage and are valid
// until the next call on the same Context.
type Context struct {
	team   *par.Team // the current run's team
	tEff   int       // the team's size, read at the start and at every α-block boundary
	cancel *atomic.Bool
	dts    *stats.DTCounters
	pf     *prefilter.Runner
	st     stats.Stats // sink when the caller passes no Stats

	// Working-set scratch, sized to the current input.
	work  []float64 // gathered working matrix (row-major)
	wl1   []float64 // working-set L1 norms
	worig []int     // working-set original indices
	wmask []point.Mask
	wcode []uint64 // working-set code words (quant)
	keys  []uint64 // radix sort keys: compound (level, mask), or L1 bits on an unpartitioned run
	idx   []int    // sort permutation
	idxT  []int    // radix ping-pong buffer
	hist  []int    // per-thread radix histograms
	runs  []int    // equal-key run boundaries (pairs)
	flags []uint32

	quant point.Quantizer // the run's code-word map, fitted to the working set
	cmin  []float64       // per-worker column minima of the working set (d per worker), for quant
	cmax  []float64       // per-worker column maxima

	pivotV []float64
	pivotC []float64 // median-strategy scratch: one column per worker

	sky skylineStore // global skyline + M(S)

	// Parallel-region parameters, set before each fan-out. Bodies are
	// pre-bound once in NewContext so dispatching them allocates nothing.
	curV    point.View // the input, read through the query's preferences
	curWork point.Matrix
	curSurv []int           // rows to gather into curWork, in working-set order; nil gathers every row
	curL1   []float64       // L1 norms parallel to curSurv; nil takes them in the gather
	curRows *prefilter.Rows // the rows of curSurv as the pre-filter loaded them; nil loads them through curV
	d       int
	k       int // dominator budget: 1 = skyline, ≥ 2 = k-skyband
	blockLo int
	blockF  []uint32
	levelAt []int32 // per Phase I survivor: block row where its level starts (partitionStarts)
	partAt  []int32 // per Phase I survivor: block row where its (level, mask) partition starts
	blockC  []int32 // per-block dominator counts (k ≥ 2 only; nil on a skyline run)
	bcnt    []int32 // backing storage for blockC, α-sized
	level2  bool
	noSplit bool
	pv      []float64

	lastCounts []int32 // Counts() result of the latest run (nil for skyline)

	rsrc, rdst []int
	rshift     uint
	rt         int

	gatherBody func(tid, lo, hi int)
	codeBody   func(tid, lo, hi int)
	medianBody func(tid, lo, hi int)
	maskBody   func(tid, lo, hi int)
	p1Body     func(tid, lo, hi int)
	p2Body     func(tid, lo, hi int)
	histBody   func(tid, lo, hi int)
	scatBody   func(tid, lo, hi int)
	runBody    func(tid, lo, hi int)
}

// NewContext creates an empty Context.
func NewContext() *Context {
	c := &Context{pf: prefilter.NewRunner()}
	c.gatherBody = c.runGather
	c.codeBody = c.runCode
	c.medianBody = c.runMedian
	c.maskBody = c.runMask
	c.p1Body = c.runPhase1
	c.p2Body = c.runPhase2
	c.histBody = c.runHist
	c.scatBody = c.runScatter
	c.runBody = c.runSortRuns
	return c
}

// ensure takes the run's team and sizes the counters to the most threads
// it can ever hold.
func (c *Context) ensure(team *par.Team) {
	c.team = team
	c.tEff = team.Threads()
	if c.dts == nil || c.dts.Threads() < team.Limit() {
		c.dts = stats.NewDTCounters(team.Limit())
	}
	c.dts.Reset()
}

// rebalance moves the run's team toward its share of the pool — other
// runs may have leased or released teams since the last α-block — and
// runs the block's phases on the size that leaves. st.Threads keeps the
// largest size the run held.
func (c *Context) rebalance(st *stats.Stats) {
	c.team.Rebalance()
	c.tEff = c.team.Threads()
	st.Threads = max(st.Threads, c.tEff)
}

// canceled reports whether the current run's cancellation flag is set.
// The flag is polled at every α-block boundary and before every chunk a
// phase worker claims, so a canceled run abandons its remaining work
// within a bounded number of dominance tests.
func (c *Context) canceled() bool { return c.cancel != nil && c.cancel.Load() }

// forRanges fans body out over static ranges with the run's effective
// thread count and cancellation flag (canceled fan-outs are skipped
// wholesale at the barrier). Every sweep whose cost per row is even, and
// everything that files output per thread, goes this way.
func (c *Context) forRanges(n int, body func(tid, lo, hi int)) {
	c.team.ForRangesCancel(c.tEff, n, c.cancel, body)
}

// forChunks runs one dominance-test phase over an α-block in claimed
// chunks of phaseChunk points and books the team's busy time, the
// numerator of the trace's par_eff.
func (c *Context) forChunks(st *stats.Stats, n int, body func(tid, lo, hi int)) {
	st.Cost.Busy += c.team.ForChunks(c.tEff, n, phaseChunk, c.cancel, body)
}

// grow returns s resized to n, reallocating only when capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ---- pre-bound parallel bodies -------------------------------------------

// runGather fills curWork with the working set and its metadata. Where
// the pre-filter kept its candidates' rows, the rows of curSurv are
// copied from its row store (curRows), which pass 1 filled when it
// loaded them, so the source is read once per row the run keeps. Any
// other run loads its rows through the view, and a run without the
// pre-filter takes the L1 norms here, from the gathered row. Masks
// start at 0, the one region of an unpartitioned run; a partitioned
// run's mask sweep overwrites them.
// Worker tid also takes the column minima and maxima of its rows, the
// partials the run's quantizer is fitted to.
func (c *Context) runGather(tid, lo, hi int) {
	v := &c.curV
	dst := c.curWork.Flat()
	d := c.d
	mn, mx := c.cmin[tid*d:(tid+1)*d], c.cmax[tid*d:(tid+1)*d]
	for i := lo; i < hi; i++ {
		j := i
		if c.curSurv != nil {
			j = c.curSurv[i]
		}
		row := dst[i*d : (i+1)*d]
		if c.curRows != nil {
			copy(row, c.curRows.Row(i))
		} else {
			v.CopyRow(row, j)
		}
		// Branches, not min and max: they are almost never taken, and
		// min and max would store to the partials on every value.
		for k, x := range row {
			if x < mn[k] {
				mn[k] = x
			}
			if x > mx[k] {
				mx[k] = x
			}
		}
		if c.curL1 != nil {
			c.wl1[i] = c.curL1[i]
		} else {
			c.wl1[i] = point.L1(row)
		}
		c.worig[i] = j
		c.wmask[i] = 0
	}
}

// runCode fills an unpartitioned run's code words from the run's
// quantizer and its sort keys, the order-preserving bits of each L1
// norm; a partitioned run's mask sweep does both instead.
func (c *Context) runCode(_, lo, hi int) {
	wk := c.curWork
	for i := lo; i < hi; i++ {
		c.wcode[i] = c.quant.Code(wk.Row(i))
		c.keys[i] = point.OrderBits(c.wl1[i])
	}
}

// runMedian fills the pivot's coordinates lo..hi−1 with column medians,
// in worker tid's slice of the scratch.
func (c *Context) runMedian(tid, lo, hi int) {
	n := len(c.pivotC) / c.tEff
	pivot.MedianColumns(c.curWork, c.pivotV, c.pivotC[tid*n:tid*n:(tid+1)*n], lo, hi)
}

// runMask fills a partitioned run's masks and compound sort keys, and
// its code words in the same sweep (runCode's work, while the row is in
// cache).
func (c *Context) runMask(_, lo, hi int) {
	wk := c.curWork
	d := c.d
	for i := lo; i < hi; i++ {
		row := wk.Row(i)
		c.wmask[i] = point.ComputeMask(row, c.pv)
		c.keys[i] = c.wmask[i].CompoundKey(d)
		c.wcode[i] = c.quant.Code(row)
	}
}

// phaseChunk is how many block points a worker claims at a time in the
// dominance-test phases (forChunks). It is small against an α-block, so
// Phase II's late, expensive points are spread over the team and a
// pruned point's flag is set early enough to save its successors the
// test; it is large against the cost of a claim, one atomic add.
// Anywhere from 8 to 64 measures the same. It is also the cancellation
// bound: the team polls the flag before every claim, so the phase bodies
// carry no poll of their own.
const phaseChunk = 16

// Counts returns the per-point dominator counts of the latest Hybrid or
// QFlow run, parallel to its returned indices, or nil for a skyline run
// (SkybandK ≤ 1), where every returned point trivially has zero
// dominators. The slice aliases Context storage and is valid until the
// next call on c.
func (c *Context) Counts() []int32 { return c.lastCounts }

// runPhase1 is Phase I (Algorithm 3, compareToSky) at the run's
// dominator budget k: each block point counts its dominators in the
// global band up to k and is eliminated only when it reaches k — at
// k = 1, on its first dominator in the skyline. Band membership is
// decidable against band points alone: a point with ≥ k dominators
// overall always has ≥ k dominators inside the band (every dominator of a
// band point is itself a band point, by transitivity — see DESIGN.md §9),
// so the count each survivor carries out of Phase I is its exact
// dominator count so far. The count is recorded only on a k-skyband run
// (blockC non-nil).
func (c *Context) runPhase1(tid, blo, bhi int) {
	var local uint64
	wf := c.curWork.Flat()
	d, k := c.d, c.k
	lo := c.blockLo
	f := c.blockF
	cnt := c.blockC
	for i := blo; i < bhi; i++ {
		off := (lo + i) * d
		q := wf[off : off+d : off+d]
		n := c.sky.countDominators(q, c.wcode[lo+i], c.wmask[lo+i], c.level2, k, &local)
		if cnt != nil {
			cnt[i] = int32(n)
		}
		if n >= k {
			f[i] = 1
		}
	}
	c.dts.Inc(tid, local)
}

// runPhase2 is Phase II (Algorithm 4): each survivor adds the dominator
// count it accrues against preceding block peers to its Phase I count,
// and is eliminated only when the total reaches k. Flagged peers are
// skipped: a peer is only ever flagged once its own measured count
// reached k, which makes it a non-band point, and a non-band point can
// never dominate a band point — so skipping it cannot disturb a
// survivor's exact count, and the flag race is benign (counting a
// concurrently-flagged peer only inflates the count of a point that
// point p's dominators already doom).
func (c *Context) runPhase2(tid, blo, bhi int) {
	var local uint64
	wf := c.curWork.Flat()
	d, k := c.d, c.k
	lo := c.blockLo
	f := c.blockF
	cnt := c.blockC
	for i := blo; i < bhi; i++ {
		budget := k
		if cnt != nil {
			budget -= int(cnt[i])
		}
		var n int
		if c.noSplit {
			n = countPeersNaive(wf, c.wcode, lo, i, f, d, budget, &local)
		} else {
			n = countPeers(wf, c.wmask, c.wcode, lo, i, int(c.levelAt[i]), int(c.partAt[i]), f, d, budget, &local)
		}
		if n >= budget {
			if cnt != nil {
				cnt[i] = int32(k)
			}
			storeFlag(&f[i])
		} else if cnt != nil {
			cnt[i] += int32(n)
		}
	}
	c.dts.Inc(tid, local)
}

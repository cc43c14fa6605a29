// Package core implements the paper's contribution: the Q-Flow flow of
// control (Algorithm 1, Section V) and the full Hybrid multicore skyline
// algorithm (Algorithms 2–4, Section VI) with its two-level partition
// data structure M(S) over the shared global skyline.
package core

import (
	"sync/atomic"
	"time"

	"skybench/internal/point"
	"skybench/internal/stats"
)

// DefaultAlphaQFlow is the α-block size for Q-Flow. The paper finds
// α = 2^13 optimal across all three distributions (Section VII-C1).
const DefaultAlphaQFlow = 1 << 13

// QFlowOptions configures a Q-Flow run. The zero value selects
// GOMAXPROCS threads and the paper's default α.
type QFlowOptions struct {
	// Threads is the number of worker goroutines (≤ 0 means GOMAXPROCS).
	Threads int
	// Alpha is the block size α (≤ 0 selects DefaultAlphaQFlow).
	Alpha int
	// Stats, when non-nil, receives phase timings and DT counts.
	Stats *stats.Stats
	// Progressive, when non-nil, is invoked after each α-block with the
	// original indices of the skyline points confirmed by that block —
	// the progressive reporting the global-skyline paradigm enables.
	Progressive func(confirmed []int)
	// Cancel, when non-nil, is polled at every α-block boundary and
	// before every chunk of points a phase worker claims; once it reads
	// true the run abandons its remaining work and returns an
	// unspecified partial result, which the caller must discard.
	Cancel *atomic.Bool
	// SkybandK generalizes the computation to the k-skyband: the result
	// is every point dominated by fewer than SkybandK others, with exact
	// per-point dominator counts available from Context.Counts. Values
	// ≤ 1 select the plain skyline path, which is bit-identical to a
	// zero SkybandK.
	SkybandK int
}

// QFlow computes SKY(m) with the Q-Flow algorithm (Algorithm 1) and
// returns original row indices in confirmation (L1) order. It runs a
// throwaway Context; services answering repeated queries should hold a
// Context and call its QFlow method, which reuses all scratch state.
func QFlow(m point.Matrix, opt QFlowOptions) []int {
	c := NewContext()
	defer c.Close()
	return c.QFlow(m.View(), opt)
}

// QFlow computes the skyline of the rows of v — the input as the query's
// preferences see it — with the Q-Flow algorithm (Algorithm 1) and
// returns original row indices in confirmation (L1) order. The result
// aliases Context storage and is valid until the next call on c.
//
// The input is sorted by L1 norm so dominance can only point backwards,
// then processed in α-blocks: Phase I compares each block point to the
// global skyline in parallel; survivors are compressed; Phase II compares
// each survivor to the surviving peers that precede it in the block;
// after a final compression the survivors are appended to the global
// skyline, which is therefore always exact to within one block.
func (c *Context) QFlow(v point.View, opt QFlowOptions) []int {
	n := v.N()
	if n == 0 {
		return nil
	}
	alpha := opt.Alpha
	if alpha <= 0 {
		alpha = DefaultAlphaQFlow
	}
	k := opt.SkybandK
	if k < 1 {
		k = 1
	}
	c.k = k
	c.lastCounts = nil
	st := opt.Stats
	if st == nil {
		c.st = stats.Stats{}
		st = &c.st
	}
	st.InputSize = n
	c.ensure(opt.Threads)
	st.Threads = c.tEff
	c.cancel = opt.Cancel
	timer := stats.StartTimer(st)
	d := v.D()
	c.d = d

	// Initialization: L1 norms in parallel, then a parallel radix sort of
	// the order-preserving L1 bit keys (replacing the seed's sequential
	// sort.Slice), then one gather into the reusable working set. Both
	// sweeps read the input through the view, so the working set is the
	// only copy of it.
	c.l1 = grow(c.l1, n)
	c.curV = v
	c.forRanges(n, c.l1Body)
	c.keys = grow(c.keys, n)
	c.forRanges(n, c.keyBody)
	sortStart := time.Now()
	order := c.radixSortIdx(n, 64)
	st.Cost.Sort += time.Since(sortStart)
	if c.canceled() {
		return nil
	}

	c.work = grow(c.work, n*d)
	c.wl1 = grow(c.wl1, n)
	c.worig = grow(c.worig, n)
	wk := point.FromFlat(c.work, n, d)
	c.curWork = wk
	c.curSurv = order
	c.forRanges(n, c.qgathBody)
	timer.Stop(stats.PhaseInit)

	// Global skyline storage: contiguous rows + matching metadata,
	// reused across runs (capacity survives, length resets).
	skyData := c.qskyData[:0]
	skyL1 := c.qskyL1[:0]
	skyOrig := c.qskyOrig[:0]
	skyCnt := c.qskyCnt[:0]

	c.flags = grow(c.flags, alpha)
	p1, p2 := c.qp1Body, c.qp2Body
	var bcnt []int32
	if k > 1 {
		c.bcnt = grow(c.bcnt, alpha)
		bcnt = c.bcnt
		p1, p2 = c.qp1kBody, c.qp2kBody
	}

	for lo := 0; lo < n; lo += alpha {
		// Cancellation checkpoint: one poll per α-block keeps the
		// between-poll work bounded by a block's worth of phases.
		if c.canceled() {
			c.qskyData, c.qskyL1, c.qskyOrig, c.qskyCnt = skyData, skyL1, skyOrig, skyCnt
			return nil
		}
		hi := lo + alpha
		if hi > n {
			hi = n
		}
		block := hi - lo
		f := c.flags[:block]
		for i := range f {
			f[i] = 0
		}
		c.blockLo = lo
		c.blockF = f
		if bcnt != nil {
			c.blockC = bcnt[:block]
		}
		c.qskyData, c.qskyL1 = skyData, skyL1

		// Phase I (parallel): compare each block point to the global
		// skyline in L1 order, aborting on the first dominator (skyline)
		// or at the k-th one (skyband).
		c.forChunks(st, block, p1)
		timer.Stop(stats.PhaseOne)

		// Compression: shift survivors left, re-establishing contiguity.
		surv := compress(wk, c.wl1, c.worig, nil, bcnt, lo, block, f)
		st.Cost.Phase1Survivors += surv
		timer.Stop(stats.PhaseCompress)

		// Phase II (parallel): compare each survivor to preceding
		// survivors in the block. Flags are atomic so threads can skip
		// peers already known to be dominated (sound by transitivity).
		c.blockF = f[:surv]
		c.forChunks(st, surv, p2)
		timer.Stop(stats.PhaseTwo)

		final := compress(wk, c.wl1, c.worig, nil, bcnt, lo, surv, f)
		st.Cost.Phase2Survivors += final
		timer.Stop(stats.PhaseCompress)

		// Append the block's confirmed skyline points to the global
		// skyline (sequential O(α) work).
		firstNew := len(skyOrig)
		for i := 0; i < final; i++ {
			skyData = append(skyData, wk.Row(lo+i)...)
			skyL1 = append(skyL1, c.wl1[lo+i])
			skyOrig = append(skyOrig, c.worig[lo+i])
		}
		if bcnt != nil {
			skyCnt = append(skyCnt, bcnt[:final]...)
		}
		if opt.Progressive != nil && final > 0 {
			opt.Progressive(skyOrig[firstNew:])
		}
		timer.Stop(stats.PhaseOther)
	}

	c.qskyData, c.qskyL1, c.qskyOrig, c.qskyCnt = skyData, skyL1, skyOrig, skyCnt
	st.SkylineSize = len(skyOrig)
	st.DominanceTests = c.dts.Sum()
	if k > 1 {
		c.lastCounts = skyCnt
	}
	return skyOrig
}

// compress shifts the unflagged rows of the block starting at row lo with
// the given length to the front of the block, moving the parallel
// metadata arrays (l1, orig, and — when non-nil — mask and the
// block-relative dominator counts) along with the point data. It returns
// the number of survivors. This is the synchronization-point compression
// of Section V-D: it removes branches and restores the contiguous layout
// Phase II and the skyline append depend on.
func compress(work point.Matrix, wl1 []float64, worig []int, wmask []point.Mask, bcnt []int32, lo, length int, flags []uint32) int {
	w := 0
	for i := 0; i < length; i++ {
		if flags[i] != 0 {
			continue
		}
		if w != i {
			copy(work.Row(lo+w), work.Row(lo+i))
			wl1[lo+w] = wl1[lo+i]
			worig[lo+w] = worig[lo+i]
			if wmask != nil {
				wmask[lo+w] = wmask[lo+i]
			}
			if bcnt != nil {
				bcnt[w] = bcnt[i]
			}
			flags[w] = 0
		}
		w++
	}
	return w
}

package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"skybench/internal/par"
	"skybench/internal/pivot"
	"skybench/internal/point"
	"skybench/internal/stats"
)

// DefaultAlphaHybrid is the α-block size for Hybrid. The paper finds
// α = 2^10 optimal (Section VII-C1, Figure 8).
const DefaultAlphaHybrid = 1 << 10

// HybridOptions configures a Hybrid run. Team is required; the zero value
// of every other field selects the paper's default α, β, and the Median
// pivot.
type HybridOptions struct {
	// Team is the leased worker team the run dispatches its parallel
	// regions on. Its size at the start is the run's thread count; at
	// every α-block boundary the run rebalances it toward its share of
	// the pool (par.Team.Rebalance), so concurrent runs on one pool
	// converge to an even split.
	Team *par.Team
	// Alpha is the block size α (≤ 0 selects DefaultAlphaHybrid).
	Alpha int
	// Pivot selects the level-1 pivot strategy (default Median).
	Pivot pivot.Strategy
	// Beta is the pre-filter queue size (≤ 0 selects the paper's β = 8).
	Beta int
	// Seed drives the Random pivot strategy deterministically.
	Seed int64
	// NoPrefilter disables the β-queue pre-filter (ablation).
	NoPrefilter bool
	// NoMS disables the M(S) structure: Phase I scans the skyline in
	// row order with level-1 mask filtering only — no level 2, no
	// partition skipped on its minimum code (ablation).
	NoMS bool
	// NoLevel2 disables level-2 re-partitioning inside M(S) (ablation).
	NoLevel2 bool
	// NoPhase2Split disables the three-loop decomposition of Phase II:
	// every preceding peer gets a full dominance test (ablation).
	NoPhase2Split bool
	// NoCodes fits the run's quantizer to a zero range, so every code
	// word is 0: the pre-test passes every row and M(S) skips no
	// partition on its minimum code. That is the paper's Hybrid, test
	// for test (ablation).
	NoCodes bool
	// SkybandK generalizes the computation to the k-skyband: the result
	// is every point dominated by fewer than SkybandK others, with exact
	// per-point dominator counts available from Context.Counts. Values
	// ≤ 1 select the plain skyline path, which is bit-identical to a
	// zero SkybandK.
	SkybandK int
	// Stats, when non-nil, receives phase timings and DT counts.
	Stats *stats.Stats
	// Progressive, when non-nil, is invoked after each α-block with the
	// original indices of the skyline points that block confirmed.
	Progressive func(confirmed []int)
	// Cancel, when non-nil, is polled at every α-block boundary and
	// before every chunk of points a phase worker claims; once it reads
	// true the run abandons its remaining work and returns an
	// unspecified partial result, which the caller must discard.
	Cancel *atomic.Bool
}

// Hybrid computes the skyline of the rows of v — the input as the
// query's preferences see it — with the paper's full Hybrid algorithm and
// returns original row indices in confirmation order. The result aliases
// Context storage and is valid until the next call on c.
//
// Hybrid is Q-Flow plus point-based partitioning: after a cheap parallel
// pre-filter, the data is partitioned into 2^d regions around a pivot,
// sorted by (level, mask, L1), and processed in α-blocks against the
// global skyline indexed by the two-level M(S) structure, which lets
// Phase I skip entire incomparable regions and Phase II decompose its
// peer scan into three loops with different invariants.
//
// The input is read exactly once in full, by the pre-filter's first
// pass, which applies the preference transform and takes the L1 norms on
// the way; everything after it touches only the rows that pass kept.
func (c *Context) Hybrid(v point.View, opt HybridOptions) []int {
	return c.run(v, opt, true)
}

// run is the one α-block driver behind Hybrid and QFlow. With partition
// set it is Hybrid. Without it there is no pre-filter, no pivot and no
// three-key sort: every row is gathered and keyed by its L1 norm alone,
// every mask is 0, so M(S) is a single partition that Phase I scans
// linearly, and Phase II's loops 1–2 are empty — which is Q-Flow
// (DESIGN.md §2). Level 2 is off too: with it on, the store would
// re-partition the one partition around its first row. Both sort the
// same way: a radix pass on the key, then each run of equal keys in
// (L1, coordinates) order (sortRuns).
func (c *Context) run(v point.View, opt HybridOptions, partition bool) []int {
	n := v.N()
	if n == 0 {
		return nil
	}
	d := v.D()
	if d > point.MaxDims {
		panic(fmt.Sprintf("core: Hybrid and Q-Flow support at most %d dimensions, got %d", point.MaxDims, d))
	}
	alpha := opt.Alpha
	if alpha <= 0 {
		alpha = DefaultAlphaHybrid
	}
	// A block larger than the input is one block of exactly the input
	// (the run has at most n rows to block), so the clamp is exact; it
	// bounds the per-block scratch an oversized α would allocate.
	alpha = min(alpha, n)
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
	c.ensure(opt.Team)
	st.Threads = c.tEff
	c.cancel = opt.Cancel
	timer := stats.StartTimer(st)

	c.curV = v
	c.d = d

	// Choose the rows to gather. Hybrid's come from the pre-filter
	// (VI-A1), whose first pass is also where the preferences are applied
	// and the L1 norms taken, and which hands back its survivors' row
	// indices, and their loaded rows and norms where it kept them. Every
	// other row, and every row of a run without it (curRows = nil), is
	// loaded through the view and normed in the gather.
	c.curRows = nil
	ns := n
	if partition && !opt.NoPrefilter {
		c.curRows = c.pf.Filter(v, opt.Beta, k, !opt.NoCodes, c.team, c.dts)
		ns = c.curRows.Len()
		timer.Stop(stats.PhasePrefilt)
	}
	st.Cost.PrefilterPruned = n - ns
	if c.canceled() {
		return nil
	}

	// Materialize the chosen rows into the reusable working set.
	c.work = grow(c.work, ns*d)
	c.wl1 = grow(c.wl1, ns)
	c.worig = grow(c.worig, ns)
	c.wmask = grow(c.wmask, ns)
	c.wcode = grow(c.wcode, ns)
	wk := point.FromFlat(c.work, ns, d)
	c.curWork = wk
	c.cmin, c.cmax = grow(c.cmin, c.tEff*d), grow(c.cmax, c.tEff*d)
	for i := range c.cmin {
		c.cmin[i], c.cmax[i] = math.Inf(1), math.Inf(-1)
	}
	c.forRanges(ns, c.gatherBody)
	// Fit the run's quantizer to the working set's column ranges, reduced
	// from the gather workers' partials (DESIGN.md §2, code words). The
	// mask sweep of a partitioned run codes and keys the rows; an
	// unpartitioned run has a sweep of its own.
	for i := d; i < len(c.cmin); i++ {
		c.cmin[i%d] = min(c.cmin[i%d], c.cmin[i])
		c.cmax[i%d] = max(c.cmax[i%d], c.cmax[i])
	}
	// The paper's arm fits a zero range: every code word is 0.
	hi := c.cmax
	if opt.NoCodes {
		hi = c.cmin
	}
	c.quant.Reset(d, c.cmin, hi)

	c.keys = grow(c.keys, ns)
	keyBits := 64
	if partition {
		// Select the pivot and partition (VI-A2). The default pivot is d
		// independent column medians, fanned out over the team with a
		// scratch column per worker; the other strategies are sequential
		// scans.
		c.pivotV = grow(c.pivotV, d)
		c.pv = c.pivotV
		if opt.Pivot == pivot.Median {
			c.pivotC = grow(c.pivotC, c.tEff*pivot.MedianScratchLen(ns))
			c.forRanges(d, c.medianBody)
		} else {
			pivot.SelectInto(c.pivotV, nil, opt.Pivot, wk, c.wl1, opt.Seed)
		}
		c.forRanges(ns, c.maskBody)
		timer.Stop(stats.PhasePivot)
		keyBits = d + bits.Len(uint(d))
	} else {
		c.forRanges(ns, c.codeBody)
	}
	// The sort (VI-A3 on a partitioned run): parallel radix on the key —
	// compound (level, mask), or the L1 bits — then each run of equal
	// keys in (L1, coordinates) order. The working set stays in gather
	// order: each α-block gathers its rows in sort order into the block
	// buffers below. The sort's share of the init phase, the block
	// gathers included, is measured separately for the trace/cost model.
	sortStart := time.Now()
	idx := c.radixSortIdx(ns, keyBits)
	if c.canceled() {
		return nil
	}
	c.sortRuns(idx)
	st.Cost.Sort += time.Since(sortStart)
	timer.Stop(stats.PhaseInit)

	// NoMS walks the directory with level 2 and the minimum-code skip
	// off: every partition's rows share its level-1 mask and the
	// directory is in row order, so that tests the rows a linear
	// level-1-filtered scan tests, in its order, with its early exit.
	c.sky.reset(d, partition && !opt.NoMS, partition && !opt.NoLevel2 && !opt.NoMS)
	c.flags = grow(c.flags, alpha)
	c.brows, c.borig = grow(c.brows, alpha*d), grow(c.borig, alpha)
	c.bmask, c.bcode = grow(c.bmask, alpha), grow(c.bcode, alpha)
	c.levelAt, c.partAt = grow(c.levelAt, alpha), grow(c.partAt, alpha)
	c.noSplit = opt.NoPhase2Split
	// A skyline run keeps no counts: blockC stays nil, and compress and
	// update move none.
	var bcnt []int32
	if k > 1 {
		c.bcnt = grow(c.bcnt, alpha)
		bcnt = c.bcnt
	}
	c.blockC = nil

	for lo := 0; lo < ns; lo += alpha {
		// Cancellation checkpoint: one poll per α-block keeps the
		// between-poll work bounded by a block's worth of phases.
		if c.canceled() {
			return nil
		}
		c.rebalance(st)
		timer.Stop(stats.PhaseOther)
		hi := min(lo+alpha, ns)
		block := hi - lo
		// Gather the block's rows in sort order (runBlockGather), booked
		// to the init phase and the sort.
		c.blockIdx = idx[lo:hi]
		c.forRanges(block, c.blockBody)
		if c.canceled() {
			return nil
		}
		st.Cost.Sort += timer.Stop(stats.PhaseInit)
		bk := point.FromFlat(c.brows[:block*d], block, d)
		f := c.flags[:block]
		clear(f)
		c.blockF = f
		if bcnt != nil {
			c.blockC = bcnt[:block]
		}

		// Phase I (parallel, Algorithm 3): test block points against the
		// global skyline through M(S).
		c.forChunks(st, block, c.p1Body)
		timer.Stop(stats.PhaseOne)

		surv1 := compress(bk, c.borig, c.bmask, c.bcode, bcnt, 0, block, f)
		st.Cost.Phase1Survivors += surv1
		partitionStarts(c.bmask[:surv1], c.levelAt, c.partAt)
		timer.Stop(stats.PhaseCompress)

		// Phase II (parallel, Algorithm 4): three-loop peer comparison.
		// Flags are atomic so threads can skip peers already known to be
		// dominated (sound by transitivity).
		c.blockF = f[:surv1]
		c.forChunks(st, surv1, c.p2Body)
		timer.Stop(stats.PhaseTwo)

		final := compress(bk, c.borig, c.bmask, c.bcode, bcnt, 0, surv1, f)
		st.Cost.Phase2Survivors += final
		timer.Stop(stats.PhaseCompress)

		// Update S and M(S) (Algorithm 2) — sequential O(α) work.
		firstNew := c.sky.size()
		c.sky.update(bk, c.borig, c.bmask, c.bcode, bcnt, 0, final)
		if opt.Progressive != nil && final > 0 {
			// The callback is caller code of unknown length: the team's
			// workers serve other runs meanwhile, and the next block's
			// rebalance takes back the run's share.
			c.team.Yield()
			opt.Progressive(c.sky.orig[firstNew:])
		}
		timer.Stop(stats.PhaseOther)
	}

	st.SkylineSize = c.sky.size()
	st.DominanceTests = c.dts.Sum()
	if k > 1 {
		c.lastCounts = c.sky.counts
	}
	return c.sky.orig
}

// compress shifts the unflagged rows of the block starting at row lo with
// the given length to the front of the block, moving the parallel
// metadata arrays (orig, mask, code and — when non-nil — the
// block-relative dominator counts) along with the point data. It returns
// the number of survivors. This is the synchronization-point compression
// of Section V-D: it removes branches and restores the contiguous layout
// Phase II and the skyline append depend on.
func compress(work point.Matrix, worig []int, wmask []point.Mask, wcode []uint64, bcnt []int32, lo, length int, flags []uint32) int {
	w := 0
	for i := 0; i < length; i++ {
		if flags[i] != 0 {
			continue
		}
		if w != i {
			copy(work.Row(lo+w), work.Row(lo+i))
			worig[lo+w] = worig[lo+i]
			wmask[lo+w] = wmask[lo+i]
			wcode[lo+w] = wcode[lo+i]
			if bcnt != nil {
				bcnt[w] = bcnt[i]
			}
			flags[w] = 0
		}
		w++
	}
	return w
}

// partitionStarts fills, for each row i of a block's masks — in (level,
// mask) order, as the three-key sort leaves a block and compress keeps
// it — levelAt[i] with the first row of i's level and partAt[i] with the
// first row of its (level, mask) partition, both block-relative. Phase
// II's loops read them instead of walking to them (countPeers). On an
// unpartitioned run every mask is 0, so both columns are all 0.
func partitionStarts(masks []point.Mask, levelAt, partAt []int32) {
	ls, ps := 0, 0
	for i := range masks {
		if i > 0 && masks[i] != masks[i-1] {
			ps = i
			if masks[i].Level() != masks[i-1].Level() {
				ls = i
			}
		}
		levelAt[i], partAt[i] = int32(ls), int32(ps)
	}
}

// countPeersNaive is the no-decomposition ablation of Phase II: every
// unpruned preceding peer gets a full dominance test (through the flat
// run kernel, which applies the same flag skip and code-word pre-test)
// and contributes to the dominator count, capped at budget.
func countPeersNaive(wf []float64, wcode []uint64, me int, f []uint32, dim, budget int, dts *uint64) int {
	off := me * dim
	q := wf[off : off+dim : off+dim]
	return point.CountDominatorsInFlatRunCoded(wf, dim, 0, me, q, f, wcode, wcode[me], budget, dts)
}

// countPeers implements Algorithm 4 (compareToPeers): count block point
// me's dominators among the surviving peers that precede it, in three
// loops, stopping once the count reaches budget (at k = 1, on the first
// dominator). The block is in (level, mask, L1, coordinates) order — a
// linear extension of dominance (DESIGN.md §9), so every dominator of me
// precedes it — and levelAt and partAt are where me's level and me's
// partition start (partitionStarts), so no loop searches for its own
// end.
// Loop 1 covers the peers [0, levelAt) in strictly lower levels, where
// the mask subset test filters region-wise incomparability. Loop 2,
// [levelAt, partAt), holds peers of the same level but a different mask —
// necessarily incomparable — so it is a jump to partAt. Loop 3 covers
// peers [partAt, me) in me's own partition — a contiguous run handed to
// the flat run kernel with full dominance tests. Pruned peers are skipped
// via their atomic flags: a pruned peer has ≥ k dominators, so it is not
// a band point, and only band points contribute to a band member's exact
// count (DESIGN.md §9). No peer is skipped for its L1 norm. Loops 1 and
// 3 ask the code-word pre-test before every float test.
func countPeers(wf []float64, wmask []point.Mask, wcode []uint64, me, levelAt, partAt int, f []uint32, dim, budget int, dts *uint64) int {
	qOff := me * dim
	q := wf[qOff : qOff+dim : qOff+dim]
	qc := wcode[me]
	myMask := wmask[me]
	c := 0
	// Loop 1: lower levels — cheap filter, then DT.
	for i := 0; i < levelAt; i++ {
		if atomic.LoadUint32(&f[i]) != 0 {
			continue
		}
		if !wmask[i].Subset(myMask) {
			continue
		}
		if point.DominatesFlatCounted(wf, i*dim, qOff, dim, wcode[i], qc, dts) {
			c++
			if c >= budget {
				return c
			}
		}
	}
	// Loop 2: same level, different mask — incomparable, skipped by
	// starting loop 3 at partAt.
	//
	// Loop 3: same partition — a contiguous counting run.
	if partAt < me {
		c += point.CountDominatorsInFlatRunCoded(wf, dim, partAt, me, q, f, wcode, qc, budget-c, dts)
	}
	return c
}

// Package bskytree implements BSkyTree (Lee & Hwang, Inf. Syst. 2014),
// the state-of-the-art sequential skyline algorithm the paper compares
// against, and PBSkyTree, the paper's own parallelization of it
// (Appendix A).
//
// BSkyTree recursively partitions the data around a balanced pivot into
// 2^d regions identified by bitmasks and stores confirmed skyline points
// in a SkyTree. A new point is tested only against tree regions whose
// mask is a subset of its own (partial dominance), skipping whole regions
// of incomparable points.
//
// PBSkyTree keeps the depth-first recursion for its pruning power but (1)
// halts recursion below RecursionFloor points, and (2) accumulates the
// current leaf group together with its right siblings into work batches
// of up to BatchFactor·threads points whose Phase-I-style filtering
// against the SkyTree runs in parallel.
package bskytree

import (
	"sort"

	"skybench/internal/par"
	"skybench/internal/point"
	"skybench/internal/stats"
)

// RecursionFloor is the partition size below which PBSkyTree stops
// recursing (Appendix A: "we halt the recursion when there are fewer
// than 64 points on which to recurse").
const RecursionFloor = 64

// BatchFactor scales the parallel work-batch size: batches hold up to
// BatchFactor · threads points (Appendix A: 16 · num_threads).
const BatchFactor = 16

// node is one SkyTree node: a confirmed skyline point (the subtree's
// pivot) plus children keyed by their partition mask relative to it.
type node struct {
	pivot    int        // row index of the pivot (a skyline point)
	mask     point.Mask // mask of this subtree relative to the parent pivot
	dups     []int      // rows coincident with the pivot (also skyline)
	children []*node    // ordered by ascending (level, mask) compound key
}

// computer carries the immutable inputs and counters through recursion.
type computer struct {
	m        point.Matrix
	d        int
	full     point.Mask
	threads  int       // 1 = sequential BSkyTree
	team     *par.Team // the run's worker team (threads > 1 only)
	floor    int
	batchCap int
	dts      *stats.DTCounters
}

// Skyline computes SKY(m) with sequential BSkyTree and returns original
// row indices.
func Skyline(m point.Matrix) []int {
	idx, _ := SkylineDT(m, nil)
	return idx
}

// SkylineDT is Skyline with optional dominance-test counting.
func SkylineDT(m point.Matrix, dts *stats.DTCounters) ([]int, uint64) {
	return run(m, 1, dts)
}

// ParallelSkyline computes SKY(m) with PBSkyTree on the given thread
// count (Appendix A).
func ParallelSkyline(m point.Matrix, threads int) []int {
	idx, _ := ParallelSkylineDT(m, threads, nil)
	return idx
}

// ParallelSkylineDT is ParallelSkyline with optional DT counting.
func ParallelSkylineDT(m point.Matrix, threads int, dts *stats.DTCounters) ([]int, uint64) {
	if threads <= 0 {
		threads = par.DefaultThreads()
	}
	return run(m, threads, dts)
}

func run(m point.Matrix, threads int, dts *stats.DTCounters) ([]int, uint64) {
	n := m.N()
	if n == 0 {
		return nil, 0
	}
	if dts == nil {
		dts = stats.NewDTCounters(threads)
	}
	c := &computer{
		m:        m,
		d:        m.D(),
		full:     point.FullMask(m.D()),
		threads:  threads,
		floor:    RecursionFloor,
		batchCap: BatchFactor * threads,
	}
	c.dts = dts
	if threads > 1 {
		pool := par.NewPool(threads)
		defer pool.Close()
		c.team = pool.Lease(threads)
	}
	pts := make([]int, n)
	for i := range pts {
		pts[i] = i
	}
	root := c.build(pts)
	var out []int
	collect(root, &out)
	return out, dts.Sum()
}

// collect gathers all skyline indices stored in the tree.
func collect(nd *node, out *[]int) {
	if nd == nil {
		return
	}
	*out = append(*out, nd.pivot)
	*out = append(*out, nd.dups...)
	for _, c := range nd.children {
		collect(c, out)
	}
}

// build computes the skyline of pts and returns it as a SkyTree. The
// caller guarantees that no point outside pts dominates a point in pts.
func (c *computer) build(pts []int) *node {
	switch {
	case len(pts) == 0:
		return nil
	case len(pts) == 1:
		return &node{pivot: pts[0]}
	case c.threads > 1 && len(pts) < c.floor,
		c.threads == 1 && len(pts) <= 2:
		return c.buildSmall(pts)
	}

	v := c.selectBalancedPivot(pts)
	nd := &node{pivot: v}
	pv := c.m.Row(v)

	// Partition around the pivot, pruning points it dominates. Mask
	// computation is "parallelized as in Hybrid" (Appendix A) when the
	// input is large enough to amortize goroutines.
	masks := make([]point.Mask, len(pts))
	computeOne := func(k int) {
		masks[k] = point.ComputeMask(c.m.Row(pts[k]), pv)
	}
	if c.threads > 1 && len(pts) >= 4096 {
		c.team.ForRanges(len(pts), func(_, lo, hi int) {
			for k := lo; k < hi; k++ {
				computeOne(k)
			}
		})
	} else {
		for k := range pts {
			computeOne(k)
		}
	}
	groups := make(map[point.Mask][]int)
	for k, p := range pts {
		if p == v {
			continue
		}
		msk := masks[k]
		if msk == c.full {
			// The pivot weakly dominates p; only coincident points
			// survive (they are skyline because the pivot is).
			if point.Equals(c.m.Row(p), pv) {
				nd.dups = append(nd.dups, p)
			}
			continue
		}
		groups[msk] = append(groups[msk], p)
	}

	// Process partitions in ascending (level, mask) order so that any
	// partition that can dominate another is fully processed first.
	order := make([]point.Mask, 0, len(groups))
	for msk := range groups {
		order = append(order, msk)
	}
	sort.Slice(order, func(a, b int) bool {
		return order[a].CompoundKey(c.d) < order[b].CompoundKey(c.d)
	})

	if c.threads > 1 {
		c.processGroupsBatched(nd, order, groups)
	} else {
		for _, msk := range order {
			surv := c.filterSequential(nd, groups[msk])
			c.attach(nd, msk, surv)
		}
	}
	return nd
}

// attach recurses on a filtered group and links the resulting subtree.
func (c *computer) attach(nd *node, msk point.Mask, surv []int) {
	sub := c.build(surv)
	if sub == nil {
		return
	}
	sub.mask = msk
	nd.children = append(nd.children, sub)
}

// processGroupsBatched implements Appendix A's work batching: consecutive
// sibling groups are accumulated until the batch reaches batchCap points,
// then the whole batch is filtered against the current tree in parallel,
// and each group's survivors are recursed on in order.
func (c *computer) processGroupsBatched(nd *node, order []point.Mask, groups map[point.Mask][]int) {
	for gi := 0; gi < len(order); {
		batchEnd := gi
		batchPoints := 0
		for batchEnd < len(order) && (batchPoints == 0 || batchPoints+len(groups[order[batchEnd]]) <= c.batchCap) {
			batchPoints += len(groups[order[batchEnd]])
			batchEnd++
		}
		// Filter every point of the batch against the tree as built so
		// far, in parallel. Points in later groups of the batch may miss
		// dominators from earlier groups of the same batch — exactly the
		// bounded extra work Appendix A accepts (≤ batch size points
		// processed "too early") — so a cross-group cleanup pass inside
		// the batch restores exactness before recursion.
		type job struct {
			pt    int
			group int
		}
		var jobs []job
		for g := gi; g < batchEnd; g++ {
			for _, p := range groups[order[g]] {
				jobs = append(jobs, job{p, g})
			}
		}
		keep := make([]bool, len(jobs))
		c.team.ForRanges(len(jobs), func(tid, lo, hi int) {
			var local uint64
			for k := lo; k < hi; k++ {
				keep[k] = !c.dominatedByTree(nd, jobs[k].pt, &local)
			}
			c.dts.Inc(tid, local)
		})
		// Cleanup: test batch survivors against survivors from earlier
		// groups within the same batch (cross-group dominance the
		// parallel pass could not see). Masks decide comparability.
		surv := make([][]int, batchEnd-gi)
		for k, j := range jobs {
			if !keep[k] {
				continue
			}
			p := c.m.Row(j.pt)
			dominated := false
			var local uint64
		cleanup:
			for g := gi; g < j.group; g++ {
				if !order[g].Subset(order[j.group]) {
					continue
				}
				for _, q := range surv[g-gi] {
					local++
					if point.Dominates(c.m.Row(q), p) {
						dominated = true
						break cleanup
					}
				}
			}
			c.dts.Inc(0, local)
			if !dominated {
				surv[j.group-gi] = append(surv[j.group-gi], j.pt)
			}
		}
		for g := gi; g < batchEnd; g++ {
			c.attach(nd, order[g], surv[g-gi])
		}
		gi = batchEnd
	}
}

// filterSequential removes group points dominated by the tree built so
// far (sequential BSkyTree's Phase-I analogue).
func (c *computer) filterSequential(nd *node, group []int) []int {
	surv := group[:0]
	var local uint64
	for _, p := range group {
		if !c.dominatedByTree(nd, p, &local) {
			surv = append(surv, p)
		}
	}
	c.dts.Inc(0, local)
	return surv
}

// dominatedByTree reports whether any confirmed skyline point in the tree
// dominates row q, descending only into regions whose mask is a subset of
// q's mask relative to each node's pivot (partial dominance).
func (c *computer) dominatedByTree(nd *node, q int, dts *uint64) bool {
	qr := c.m.Row(q)
	mq := point.ComputeMask(qr, c.m.Row(nd.pivot))
	if mq == c.full {
		*dts++
		if !point.Equals(qr, c.m.Row(nd.pivot)) {
			return true
		}
	}
	for _, ch := range nd.children {
		if !ch.mask.Subset(mq) {
			continue
		}
		if c.dominatedByTree(ch, q, dts) {
			return true
		}
	}
	return false
}

// buildSmall computes the skyline of a small group with an SFS-style
// scan and returns it as a flat one-level tree rooted at the minimum-L1
// survivor.
func (c *computer) buildSmall(pts []int) *node {
	l1 := make([]float64, len(pts))
	for k, p := range pts {
		l1[k] = point.L1(c.m.Row(p))
	}
	ord := make([]int, len(pts))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return l1[ord[a]] < l1[ord[b]] })

	var local uint64
	sky := make([]int, 0, len(pts))
	for _, k := range ord {
		p := c.m.Row(pts[k])
		dominated := false
		for _, j := range sky {
			local++
			if point.Dominates(c.m.Row(j), p) {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, pts[k])
		}
	}
	c.dts.Inc(0, local)

	root := &node{pivot: sky[0]}
	pv := c.m.Row(sky[0])
	for _, p := range sky[1:] {
		msk := point.ComputeMask(c.m.Row(p), pv)
		if msk == c.full { // coincident with the root pivot
			root.dups = append(root.dups, p)
			continue
		}
		root.children = append(root.children, &node{pivot: p, mask: msk})
	}
	return root
}

// selectBalancedPivot returns the index (within pts) of the skyline point
// minimizing the range of min-max normalized coordinates — BSkyTree's
// balanced pivot criterion.
func (c *computer) selectBalancedPivot(pts []int) int {
	d := c.d
	lo := make([]float64, d)
	hi := make([]float64, d)
	copy(lo, c.m.Row(pts[0]))
	copy(hi, c.m.Row(pts[0]))
	for _, p := range pts[1:] {
		for j, x := range c.m.Row(p) {
			if x < lo[j] {
				lo[j] = x
			}
			if x > hi[j] {
				hi[j] = x
			}
		}
	}
	span := make([]float64, d)
	for j := range span {
		span[j] = hi[j] - lo[j]
		if span[j] == 0 {
			span[j] = 1
		}
	}
	rangeOf := func(p int) float64 {
		mn, mx := 2.0, -1.0
		for j, x := range c.m.Row(p) {
			nv := (x - lo[j]) / span[j]
			if nv < mn {
				mn = nv
			}
			if nv > mx {
				mx = nv
			}
		}
		return mx - mn
	}
	var local uint64
	cand := pts[0]
	candRange := rangeOf(cand)
	for _, p := range pts[1:] {
		local += 2
		switch {
		case point.Dominates(c.m.Row(p), c.m.Row(cand)):
			cand, candRange = p, rangeOf(p)
		case point.Dominates(c.m.Row(cand), c.m.Row(p)):
		default:
			if r := rangeOf(p); r < candRange {
				cand, candRange = p, r
			}
		}
	}
	// Refine until no point dominates the candidate (guarantees a true
	// skyline point, so coincident full-mask points can be kept safely).
	for changed := true; changed; {
		changed = false
		for _, p := range pts {
			local++
			if point.Dominates(c.m.Row(p), c.m.Row(cand)) {
				cand = p
				changed = true
			}
		}
	}
	c.dts.Inc(0, local)
	return cand
}

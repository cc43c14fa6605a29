// Package apskyline implements APSkyline (Liknes et al., DASFAA 2014),
// the third multicore algorithm in the paper's related work
// (Section III). APSkyline keeps PSkyline's divide–compute–merge
// pattern but partitions the data by *angle* instead of by position in
// the input file: points are mapped to hyperspherical coordinates and
// split into equi-depth angular ranges. Angular partitions cut across
// the skyline, so each partition's local skyline is small and the merge
// is cheaper than PSkyline's — but, as the paper notes, the approach
// does not scale with dimensionality (the angle transform degrades as d
// grows; the original evaluation stops at d = 5).
//
// Partitioning here uses the first hyperspherical angle with equi-depth
// boundaries, the one-dimensional variant of the original's equi-depth
// scheme.
package apskyline

import (
	"math"
	"sort"

	"skybench/internal/par"
	"skybench/internal/point"
	"skybench/internal/stats"
)

// Skyline computes SKY(m) with threads workers and returns original row
// indices.
func Skyline(m point.Matrix, threads int) []int {
	idx, _ := SkylineDT(m, threads)
	return idx
}

// SkylineDT is Skyline with a dominance-test count.
func SkylineDT(m point.Matrix, threads int) ([]int, uint64) {
	n := m.N()
	if n == 0 {
		return nil, 0
	}
	if threads <= 0 {
		threads = par.DefaultThreads()
	}
	if threads > n {
		threads = n
	}
	dts := stats.NewDTCounters(threads)
	pool := par.NewPool(threads)
	defer pool.Close()

	// First hyperspherical angle of every point: the angle between the
	// first coordinate axis and the remaining-coordinate norm. Points
	// with angle 0 hug the first axis; π/2 the complementary subspace.
	angles := make([]float64, n)
	pool.ForRanges(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			rest := 0.0
			for _, v := range row[1:] {
				rest += v * v
			}
			angles[i] = math.Atan2(math.Sqrt(rest), row[0])
		}
	})

	// Equi-depth angular partitioning: sort by angle, cut into t equal
	// slices. (The original splits multiple angles recursively; one
	// equi-depth angle is its d→2 projection and keeps the property
	// that partitions intersect the skyline rather than contain it.)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return angles[order[a]] < angles[order[b]] })

	// Local skylines per angular slice, in parallel.
	locals := make([][]int, threads)
	pool.ForRanges(n, func(tid, lo, hi int) {
		var local uint64
		locals[tid] = windowScan(m, order[lo:hi], &local)
		dts.Inc(tid, local)
	})

	// Merge with the same parallel fold PSkyline uses.
	global := locals[0]
	for k := 1; k < threads; k++ {
		if len(locals[k]) > 0 {
			global = pmerge(m, global, locals[k], pool, dts)
		}
	}
	return global, dts.Sum()
}

// windowScan computes the skyline of the given rows with a BNL window.
func windowScan(m point.Matrix, pts []int, dts *uint64) []int {
	window := make([]int, 0, 64)
	for _, i := range pts {
		p := m.Row(i)
		dominated := false
		w := 0
		for k, j := range window {
			*dts++
			rel := point.Compare(m.Row(j), p)
			if rel == point.LeftDominates {
				w += copy(window[w:], window[k:])
				dominated = true
				break
			}
			if rel == point.RightDominates {
				continue
			}
			window[w] = j
			w++
		}
		window = window[:w]
		if !dominated {
			window = append(window, i)
		}
	}
	return window
}

// pmerge merges two internally dominance-free sets: each side keeps the
// points not dominated by the other side.
func pmerge(m point.Matrix, a, b []int, pool *par.Pool, dts *stats.DTCounters) []int {
	keepA := make([]bool, len(a))
	keepB := make([]bool, len(b))
	d := m.D()
	total := len(a) + len(b)
	pool.ForRanges(total, func(tid, lo, hi int) {
		var local uint64
		for k := lo; k < hi; k++ {
			if k < len(a) {
				p := m.Row(a[k])
				keepA[k] = true
				for _, j := range b {
					local++
					if point.DominatesD(m.Row(j), p, d) {
						keepA[k] = false
						break
					}
				}
			} else {
				p := m.Row(b[k-len(a)])
				keepB[k-len(a)] = true
				for _, j := range a {
					local++
					if point.DominatesD(m.Row(j), p, d) {
						keepB[k-len(a)] = false
						break
					}
				}
			}
		}
		dts.Inc(tid, local)
	})
	out := make([]int, 0, len(a)+len(b))
	for k, keep := range keepA {
		if keep {
			out = append(out, a[k])
		}
	}
	for k, keep := range keepB {
		if keep {
			out = append(out, b[k])
		}
	}
	return out
}

// Package pskyline implements PSkyline (Im & Park, Inf. Syst. 2011), the
// state-of-the-art multicore divide-and-conquer algorithm the paper
// compares against.
//
// The input is cut linearly into one block per thread; each thread
// computes the local skyline of its block in isolation (the "map" phase,
// which the paper calls PSkyline's Phase I); the local skylines are then
// folded into a global skyline with a parallelized merge (the "reduce" /
// Phase II). The merge phase is PSkyline's bottleneck on hard workloads
// because dominance between blocks is only discovered there — the
// motivating weakness for the paper's global-skyline paradigm.
package pskyline

import (
	"sync/atomic"
	"time"

	"skybench/internal/par"
	"skybench/internal/point"
	"skybench/internal/stats"
)

// SkylineStats computes SKY(m) on team, one linear block per team
// thread, and returns original row indices, with phase timings and DT
// counts recorded into st when non-nil. Phase I holds the local (map)
// skylines, Phase II the merge; a canceled run records the phases it
// ran too.
//
// cancel, when non-nil, is polled before every row of a block's scan,
// every merge round and every point of a merge, each of which tests the
// row against a whole window or skyline: once it is set the run stops
// and returns nil, an answer the caller must not use.
func SkylineStats(m point.Matrix, team *par.Team, st *stats.Stats, cancel *atomic.Bool) []int {
	n := m.N()
	if n == 0 {
		return nil
	}
	threads := team.Threads()
	dts := stats.NewDTCounters(threads)
	start := time.Now()

	// Map: local skyline per linear block, one per thread.
	locals := make([][]int, threads)
	team.ForRangesCancel(0, n, cancel, func(tid, lo, hi int) {
		var local uint64
		locals[tid] = sskyline(m, lo, hi, &local, cancel)
		dts.Inc(tid, local)
	})
	mapDone := time.Now()

	// Reduce: fold the local skylines into a global skyline. Each merge
	// of two disjoint skylines keeps exactly the points not dominated by
	// the other side; both directions are checked in parallel.
	global := locals[0]
	for k := 1; k < threads && !canceled(cancel); k++ {
		if len(locals[k]) > 0 {
			global = pmerge(m, global, locals[k], team, dts, cancel)
		}
	}
	end := time.Now()

	if st != nil {
		st.InputSize = n
		st.Threads = threads
		st.SkylineSize = len(global)
		st.DominanceTests = dts.Sum()
		st.Phases[stats.PhaseOne] += mapDone.Sub(start)
		st.Phases[stats.PhaseTwo] += end.Sub(mapDone)
	}
	if canceled(cancel) {
		return nil
	}
	return global
}

// canceled reports that the run should stop: its flag is set.
func canceled(cancel *atomic.Bool) bool { return cancel != nil && cancel.Load() }

// sskyline computes the skyline of rows [lo, hi) with an in-place
// BNL-style scan (Im & Park's sequential building block).
func sskyline(m point.Matrix, lo, hi int, dts *uint64, cancel *atomic.Bool) []int {
	window := make([]int, 0, 64)
	for i := lo; i < hi; i++ {
		if canceled(cancel) {
			return nil
		}
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

// pmerge merges two skylines of disjoint subsets: a point of A survives
// iff no point of B dominates it, and vice versa. Because A and B are
// each internally dominance-free, testing against the full opposite side
// is equivalent to testing against its survivors, so both directions run
// in parallel without ordering.
func pmerge(m point.Matrix, a, b []int, team *par.Team, dts *stats.DTCounters, cancel *atomic.Bool) []int {
	keepA := make([]bool, len(a))
	keepB := make([]bool, len(b))
	total := len(a) + len(b)
	team.ForRangesCancel(0, total, cancel, func(tid, lo, hi int) {
		var local uint64
		for k := lo; k < hi; k++ {
			if canceled(cancel) {
				break
			}
			if k < len(a) {
				p := m.Row(a[k])
				keepA[k] = true
				for _, j := range b {
					local++
					if point.Dominates(m.Row(j), p) {
						keepA[k] = false
						break
					}
				}
			} else {
				p := m.Row(b[k-len(a)])
				keepB[k-len(a)] = true
				for _, j := range a {
					local++
					if point.Dominates(m.Row(j), p) {
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

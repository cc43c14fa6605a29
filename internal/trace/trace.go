// Package trace defines the engine-level cost counters behind query
// tracing: the work measurements beyond the paper's per-phase timings
// and dominance-test counts that an EXPLAIN ANALYZE-style trace needs —
// prefilter effectiveness, points surviving each phase, time spent in
// the three-key sort, and how busy the dominance-test phases kept the
// worker team.
//
// The counters are plain integer stores accumulated unconditionally by
// the core algorithms into scratch that already exists (stats.Stats
// embeds a Cost), so they cost a handful of register writes per run and
// zero allocations: the public trace object is only materialized when a
// query asks for it.
package trace

import "time"

// Cost accumulates the extended work counters of one algorithm run.
// All fields are additive, so per-shard costs sum into a collection-
// level total.
type Cost struct {
	// PrefilterPruned is the number of input points discarded by the
	// β-queue prefilter before the main algorithm ran (zero for Q-Flow
	// and for prefilter-disabled ablations).
	PrefilterPruned int
	// Phase1Survivors is the total number of block points that survived
	// Phase I (the comparison against the global skyline) across all
	// α-blocks — the workload Phase II actually sees.
	Phase1Survivors int
	// Phase2Survivors is the total number of points that survived
	// Phase II (the peer comparison) across all α-blocks; for a run
	// that completes this equals the output size.
	Phase2Survivors int
	// Sort is the wall-clock time of the sort step (Hybrid's three-key
	// radix + per-run L1 sorts, Q-Flow's L1 radix sort), a subset of
	// the init phase that the paper's phase decomposition folds away.
	Sort time.Duration
	// Busy is the time the worker team spent inside the dominance-test
	// phases (Phase I and II of Hybrid and Q-Flow), summed over workers
	// and α-blocks: each worker of each claimed-chunk region contributes
	// the time between entering and leaving it. Against threads × the
	// phases' wall time it is their parallel efficiency; what is missing
	// is workers waiting at a region's barrier or not woken at all.
	Busy time.Duration
}

// Add accumulates other into c.
func (c *Cost) Add(other Cost) {
	c.PrefilterPruned += other.PrefilterPruned
	c.Phase1Survivors += other.Phase1Survivors
	c.Phase2Survivors += other.Phase2Survivors
	c.Sort += other.Sort
	c.Busy += other.Busy
}

// Scale divides all counters by k (completing an average over k runs).
func (c *Cost) Scale(k int) {
	if k <= 1 {
		return
	}
	c.PrefilterPruned /= k
	c.Phase1Survivors /= k
	c.Phase2Survivors /= k
	c.Sort /= time.Duration(k)
	c.Busy /= time.Duration(k)
}

// Package stats collects the measurements the paper reports: per-phase
// wall-clock breakdowns (Figures 7–8) and dominance-test counts, the
// machine-independent work metric behind the paper's analysis.
//
// Dominance tests are counted per worker thread in padded slots and summed
// after each parallel region, so the hot loop never touches shared memory.
package stats

import "time"

// Phase identifies one component of an algorithm's execution, matching the
// decompositions in Figures 7 and 8 of the paper.
type Phase int

const (
	PhaseInit     Phase = iota // sorting; without the pre-filter also the L1 sweep; Q-Flow: L1 + sort + gather
	PhasePrefilt               // preference transform + L1 + β-queue pre-filter in one sweep (Hybrid)
	PhasePivot                 // survivor gather + pivot selection + partitioning (Hybrid)
	PhaseOne                   // Phase I: comparing to known skyline
	PhaseTwo                   // Phase II: comparing to peers / merge
	PhaseCompress              // α-block compression
	PhaseOther                 // everything else (structure updates, ...)
	numPhases
)

// NumPhases is the number of distinct phases tracked.
const NumPhases = int(numPhases)

// Stats aggregates the result of one algorithm run.
type Stats struct {
	// DominanceTests counts full point-to-point dominance tests performed,
	// mirroring the paper's definition of a DT in Section IV-A. The cheap
	// filter checks in front of them — mask subset, L1 norm, pruned flag
	// — are not counted, and the mask checks are no longer per row: Phase
	// I answers them a word of packed masks at a time
	// (point.PackedMasks), several rows per handful of ALU operations. A
	// run visits several times more rows than it tests (28.1 M against
	// 6.0 M on 32 768 anticorrelated rows of d = 8), so time per DT prices
	// the visits too.
	DominanceTests uint64
	// Phases holds wall-clock time per phase.
	Phases [NumPhases]time.Duration
	// SkylineSize is |SKY(P)|.
	SkylineSize int
	// InputSize is |P|.
	InputSize int
	// Threads is the thread count the run was configured with.
	Threads int
	// Cost holds the extended work counters behind query tracing
	// (prefilter prune hits, per-phase survivors, sort time).
	Cost Cost
}

// Cost holds the engine-level work counters behind query tracing: the
// measurements beyond the paper's per-phase timings and dominance-test
// counts that an EXPLAIN ANALYZE-style trace needs — prefilter
// effectiveness, points surviving each phase, time spent in the
// three-key sort, and how busy the dominance-test phases kept the worker
// team. They are plain stores the core algorithms make into scratch that
// already exists, a handful of register writes per run and no
// allocation: the public trace object is only built when a query asks
// for it.
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
	// radix + per-run L1 sorts, Q-Flow's L1 radix sort, and the gathers
	// that put each α-block's rows in that order), a subset of the init
	// phase that the paper's phase decomposition folds away.
	Sort time.Duration
	// Busy is the time the worker team spent inside the dominance-test
	// phases (Phase I and II of Hybrid and Q-Flow), summed over workers
	// and α-blocks: each worker of each claimed-chunk region contributes
	// the time between entering and leaving it. Against threads × the
	// phases' wall time it is their parallel efficiency; what is missing
	// is workers waiting at a region's barrier or not woken at all.
	Busy time.Duration
}

// Timer measures phases sequentially: call Start at a phase boundary, then
// Stop(phase) to attribute elapsed time since the previous boundary.
type Timer struct {
	s    *Stats
	last time.Time
}

// StartTimer begins timing against s. It returns a value, so hot paths
// that reuse a Context time phases without a per-run allocation.
func StartTimer(s *Stats) Timer { return Timer{s: s, last: time.Now()} }

// Stop attributes the time since the previous boundary to phase,
// re-arms the timer and returns the time it attributed.
func (t *Timer) Stop(p Phase) time.Duration {
	now := time.Now()
	d := now.Sub(t.last)
	t.s.Phases[p] += d
	t.last = now
	return d
}

// DTCounters are per-thread dominance-test counters padded to cache-line
// size so concurrent workers never share a line.
type DTCounters struct {
	slots []paddedCounter
}

type paddedCounter struct {
	n uint64
	_ [7]uint64 // pad to 64 bytes
}

// NewDTCounters allocates counters for t threads (minimum 1).
func NewDTCounters(t int) *DTCounters {
	if t < 1 {
		t = 1
	}
	return &DTCounters{slots: make([]paddedCounter, t)}
}

// Inc adds k dominance tests to thread tid's slot. Only tid itself may
// call Inc for its slot during a parallel region.
func (c *DTCounters) Inc(tid int, k uint64) { c.slots[tid].n += k }

// Threads returns the number of per-thread slots.
func (c *DTCounters) Threads() int { return len(c.slots) }

// Sum returns the total across threads. Call only outside parallel
// regions.
func (c *DTCounters) Sum() uint64 {
	var s uint64
	for i := range c.slots {
		s += c.slots[i].n
	}
	return s
}

// Reset zeroes all slots.
func (c *DTCounters) Reset() {
	for i := range c.slots {
		c.slots[i].n = 0
	}
}

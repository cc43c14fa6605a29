// Package stats collects the measurements the paper reports: per-phase
// wall-clock breakdowns (Figures 7–8) and dominance-test counts, the
// machine-independent work metric behind the paper's analysis.
//
// Dominance tests are counted per worker thread in padded slots and summed
// after each parallel region, so the hot loop never touches shared memory.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"skybench/internal/trace"
)

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

// phaseNames are the labels used by the experiment harness tables.
var phaseNames = [numPhases]string{
	"init", "prefilter", "pivot", "phase1", "phase2", "compress", "other",
}

// String returns the harness label for the phase.
func (p Phase) String() string {
	if p < 0 || p >= numPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

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
	Cost trace.Cost
}

// Total returns the summed wall-clock time across phases.
func (s *Stats) Total() time.Duration {
	var t time.Duration
	for _, d := range s.Phases {
		t += d
	}
	return t
}

// Add accumulates other into s (used when averaging repeated runs).
func (s *Stats) Add(other *Stats) {
	s.DominanceTests += other.DominanceTests
	for i := range s.Phases {
		s.Phases[i] += other.Phases[i]
	}
	s.Cost.Add(other.Cost)
}

// Scale divides all additive metrics by k (completing an average).
func (s *Stats) Scale(k int) {
	if k <= 1 {
		return
	}
	s.DominanceTests /= uint64(k)
	for i := range s.Phases {
		s.Phases[i] /= time.Duration(k)
	}
	s.Cost.Scale(k)
}

// String renders a compact one-line summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d |SKY|=%d t=%d DTs=%d total=%v",
		s.InputSize, s.SkylineSize, s.Threads, s.DominanceTests, s.Total().Round(time.Microsecond))
	type pv struct {
		p Phase
		d time.Duration
	}
	var parts []pv
	for p := Phase(0); p < numPhases; p++ {
		if s.Phases[p] > 0 {
			parts = append(parts, pv{p, s.Phases[p]})
		}
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].d > parts[j].d })
	for _, x := range parts {
		fmt.Fprintf(&b, " %s=%v", x.p, x.d.Round(time.Microsecond))
	}
	return b.String()
}

// Timer measures phases sequentially: call Start at a phase boundary, then
// Stop(phase) to attribute elapsed time since the previous boundary.
type Timer struct {
	s    *Stats
	last time.Time
}

// NewTimer begins timing against s.
func NewTimer(s *Stats) *Timer { return &Timer{s: s, last: time.Now()} }

// StartTimer is NewTimer returning a value, so hot paths that reuse a
// Context can time phases without a per-run allocation.
func StartTimer(s *Stats) Timer { return Timer{s: s, last: time.Now()} }

// Stop attributes the time since the previous boundary to phase and
// re-arms the timer.
func (t *Timer) Stop(p Phase) {
	now := time.Now()
	t.s.Phases[p] += now.Sub(t.last)
	t.last = now
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

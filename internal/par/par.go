// Package par is the parallel runtime of this repository: Pool, a
// persistent set of worker goroutines, and Team, the slice of it one
// computation leases — in the role of the OpenMP thread team the paper's
// C++ implementation creates once and reuses for every parallel region.
// The paper runs one computation on one team; a server runs many at once,
// so each leases its own team from the shared pool — an even split over
// the teams out, rebalanced between regions as teams come and go — and
// the teams run their regions side by side on disjoint workers. There is one way to run
// a parallel loop — a region dispatched on a Team — and a region has one
// of two shapes:
//
//   - Static ranges (ForRanges, ForRangesCancel; OpenMP schedule(static)):
//     [0, n) is cut into one contiguous range per worker. Worker tid
//     always gets the same rows, so whatever a body files per thread —
//     radix histograms, the pre-filter's queues and candidate segments,
//     a baseline's local skylines — comes out in row order and every run
//     of the same input is the same run. The sweeps, the radix sort, the
//     pre-filter and the baselines use it; their per-row cost is even, so
//     equal ranges finish together.
//
//   - Claimed chunks (ForChunks; OpenMP schedule(dynamic, chunk)): workers
//     take fixed-size chunks of [0, n) from a shared cursor, in ascending
//     order, until none are left. The dominance-test phases of Hybrid and
//     Q-Flow use it, because their per-point cost is anything but even: a
//     point dominated by the first skyline row costs one test, a skyline
//     point costs a pass over the skyline, and Phase II's cost grows with
//     the point's position in its block — under equal ranges the worker
//     holding the late points finishes last while the others idle. Which
//     worker tests which point is then not repeatable; the phases do not
//     care, since a point's fate does not depend on who decides it.
//
// All algorithms take an explicit thread count t, so the paper's
// thread-scaling experiments (Figures 10–13) can sweep t regardless of
// GOMAXPROCS. A run's answer never depends on its team's size.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
)

// DefaultThreads returns the thread count used when the caller passes
// t <= 0: the number of usable CPUs.
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }

// WorkerPanic carries a panic across a parallel-region barrier: the
// original panic value plus the panicking worker's stack. A panic on a
// worker goroutine would otherwise kill the whole process (recover only
// works on the panicking goroutine), so every region here recovers it,
// completes the barrier, and rethrows *WorkerPanic on the dispatching
// goroutine — where the caller's own defer/recover can contain it.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) String() string {
	return fmt.Sprintf("par: worker panic: %v\n%s", p.Value, p.Stack)
}

// panicSlot records the first panic among a region's workers.
type panicSlot struct{ p atomic.Pointer[WorkerPanic] }

// capture must be invoked via defer inside the function whose panic it
// recovers. An already-wrapped *WorkerPanic (a nested region) passes
// through with its original stack.
func (s *panicSlot) capture() {
	if r := recover(); r != nil {
		wp, ok := r.(*WorkerPanic)
		if !ok {
			wp = &WorkerPanic{Value: r, Stack: debug.Stack()}
		}
		s.p.CompareAndSwap(nil, wp)
	}
}

// tripped reports whether a panic has been recorded; workers poll it
// between chunks so a poisoned region winds down instead of burning the
// remaining work.
func (s *panicSlot) tripped() bool { return s.p.Load() != nil }

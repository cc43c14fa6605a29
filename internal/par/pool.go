package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a persistent team of worker goroutines with a reusable barrier.
// Hybrid and Q-Flow issue one region per phase per α-block; a Pool pays
// two channel operations per worker for each, where spawning goroutines
// per region would pay their creation and a WaitGroup.
//
// A region is either static — ForRanges/ForRangesCancel hand worker tid
// the tid-th of t equal contiguous ranges, the shape for everything whose
// per-thread output must come out in row order — or claimed: ForChunks
// lets the workers take fixed-size chunks from a shared cursor, the shape
// for the dominance-test phases, whose per-point cost is too skewed for
// equal ranges to finish together (see the package comment).
//
// The calling goroutine participates as worker 0, so a Pool of t threads
// owns t−1 goroutines and a single-threaded Pool runs everything inline.
// Dispatch methods are safe for concurrent use: concurrent parallel
// regions serialize on an internal mutex, so one Pool can be shared by
// many computation contexts (the Engine serving concurrent skyline
// queries relies on this). A dispatch method must not be called from
// inside a body running on the same Pool. Close releases the workers; a
// finalizer releases them anyway if a Pool is garbage-collected while
// still open, so an un-Closed Pool does not leak goroutines permanently.
type Pool struct {
	*pool
}

// pool is the inner state shared with the worker goroutines. Keeping it
// behind a wrapper lets the cleanup run when the caller drops the Pool:
// the workers only reference the inner struct, so the wrapper can become
// unreachable while they are parked.
type pool struct {
	t  int
	mu sync.Mutex // serializes multi-threaded dispatches

	// Current parallel region, written by the dispatcher under mu before
	// waking workers (the channel send orders these writes before the
	// reads).
	body   func(tid, lo, hi int)
	n      int
	tEff   int          // static region: number of ranges
	chunk  int          // claimed region: chunk size; 0 marks a static region
	stop   *atomic.Bool // when non-nil and set, workers take no more work
	cursor atomic.Int64 // claimed region: first index not yet claimed
	busy   atomic.Int64 // claimed region: the workers' summed in-region ns

	pan panicSlot // first worker panic of the current region

	start []chan struct{} // one per worker goroutine, wakes it for a region
	done  chan struct{}   // workers report region completion
	quit  chan struct{}   // closed to release the workers
	once  sync.Once
}

// NewPool creates a pool of t workers (t ≤ 0 selects DefaultThreads).
func NewPool(t int) *Pool {
	if t <= 0 {
		t = DefaultThreads()
	}
	p := &pool{
		t:     t,
		start: make([]chan struct{}, t-1),
		done:  make(chan struct{}, t-1),
		quit:  make(chan struct{}),
	}
	for w := range p.start {
		p.start[w] = make(chan struct{})
		go p.worker(w + 1)
	}
	wrapper := &Pool{pool: p}
	runtime.AddCleanup(wrapper, func(inner *pool) { inner.close() }, p)
	return wrapper
}

// Threads returns the pool's worker count.
func (p *pool) Threads() int { return p.t }

// Close releases the worker goroutines. The pool must not be used after.
func (p *pool) Close() { p.close() }

func (p *pool) close() {
	p.once.Do(func() { close(p.quit) })
}

func (p *pool) worker(tid int) {
	for {
		select {
		case <-p.quit:
			return
		case <-p.start[tid-1]:
		}
		p.share(tid)
		p.done <- struct{}{}
	}
}

// share runs worker tid's part of the current region, recovering any
// panic into the region's panic slot. The worker still reaches the
// barrier, so a panicking body can never wedge the pool; the dispatcher
// rethrows the panic on its own goroutine after the barrier completes.
func (p *pool) share(tid int) {
	defer p.pan.capture()
	if p.chunk == 0 {
		if !p.stopped() {
			lo, hi := staticRange(tid, p.n, p.tEff)
			p.body(tid, lo, hi)
		}
		return
	}
	// Claim chunks in ascending order until the cursor passes n. The two
	// clock reads bracket everything the worker does in the region, so
	// busy / (workers × region wall time) is the region's efficiency.
	begin := time.Now()
	n, chunk, body := p.n, p.chunk, p.body
	for !p.stopped() {
		lo := int(p.cursor.Add(int64(chunk))) - chunk
		if lo >= n {
			break
		}
		body(tid, lo, min(lo+chunk, n))
	}
	p.busy.Add(int64(time.Since(begin)))
}

// stopped reports that the region should take no more work: its stop
// flag is raised, or a worker panicked.
func (p *pool) stopped() bool {
	return (p.stop != nil && p.stop.Load()) || p.pan.tripped()
}

// staticRange returns worker tid's contiguous share of [0, n) split into t
// nearly equal ranges (OpenMP schedule(static)).
func staticRange(tid, n, t int) (lo, hi int) {
	size := n / t
	rem := n % t
	lo = tid*size + min(tid, rem)
	hi = lo + size
	if tid < rem {
		hi++
	}
	return lo, hi
}

// team clamps a requested worker count to the pool's size and to the
// number of work items.
func (p *pool) team(t, items int) int {
	if t <= 0 || t > p.t {
		t = p.t
	}
	return min(t, items)
}

// region runs one multi-threaded region: it publishes the region's
// parameters, wakes t−1 workers, takes worker 0's share itself, waits on
// the barrier, and rethrows a worker's panic on the caller's goroutine.
// It returns the region's summed busy time (claimed regions only).
func (p *pool) region(t, n, chunk int, stop *atomic.Bool, body func(tid, lo, hi int)) time.Duration {
	p.mu.Lock()
	p.body, p.n, p.tEff, p.chunk, p.stop = body, n, t, chunk, stop
	p.cursor.Store(0)
	p.busy.Store(0)
	for w := 1; w < t; w++ {
		p.start[w-1] <- struct{}{}
	}
	p.share(0)
	for w := 1; w < t; w++ {
		<-p.done
	}
	busy := p.busy.Load()
	p.body, p.stop = nil, nil
	wp := p.pan.p.Swap(nil)
	p.mu.Unlock()
	if wp != nil {
		panic(wp)
	}
	return time.Duration(busy)
}

// ForRanges runs body(tid, lo, hi) over a static partition of [0, n) into
// min(t, n) contiguous ranges on the pool's workers.
func (p *pool) ForRanges(n int, body func(tid, lo, hi int)) {
	p.ForRangesCancel(p.t, n, nil, body)
}

// ForRangesCancel is ForRanges restricted to min(t, pool size) workers,
// with an optional cancellation flag: when stop is non-nil and set, the
// fan-out is abandoned — workers that have not started their share skip
// it entirely and the barrier completes immediately. This is how a
// canceled skyline query stops paying for parallel regions it no longer
// needs; a range body that wants to stop sooner polls the flag itself.
func (p *pool) ForRangesCancel(t, n int, stop *atomic.Bool, body func(tid, lo, hi int)) {
	if n <= 0 {
		return
	}
	if t = p.team(t, n); t == 1 {
		if stop == nil || !stop.Load() {
			body(0, 0, n)
		}
		return
	}
	p.region(t, n, 0, stop, body)
}

// ForChunks runs body(tid, lo, hi) over [0, n) cut into chunks of the
// given size (the last one may be short), claimed in ascending order by
// min(t, pool size) workers. stop, when non-nil, is polled before every
// claim, so a raised flag ends the region within one chunk per worker —
// bodies need no poll of their own — and a single worker walks the same
// chunks inline, which keeps that bound at t = 1. It returns the time
// the workers spent in the region, summed over workers: against workers
// × the region's wall time it says how much of the team the region kept
// busy.
func (p *pool) ForChunks(t, n, chunk int, stop *atomic.Bool, body func(tid, lo, hi int)) time.Duration {
	if n <= 0 {
		return 0
	}
	if t = p.team(t, (n+chunk-1)/chunk); t == 1 {
		begin := time.Now()
		for lo := 0; lo < n && (stop == nil || !stop.Load()); lo += chunk {
			body(0, lo, min(lo+chunk, n))
		}
		return time.Since(begin)
	}
	return p.region(t, n, chunk, stop, body)
}

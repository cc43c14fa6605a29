package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a persistent set of parked worker goroutines that it leases out
// as Teams. Hybrid and Q-Flow issue one region per phase per α-block; a
// team pays two channel operations per worker for each, where spawning
// goroutines per region would pay their creation and a WaitGroup.
//
// A Pool of t threads owns t−1 goroutines: the goroutine that leases a
// team is always its worker 0. The pool splits itself evenly over the
// teams out — a team's share is max(1, t / teams out) — so concurrent
// computations (the Engine serving concurrent skyline queries) run their
// regions at the same time on disjoint workers instead of taking turns.
// Lease never blocks: it hands out at most the workers no other team
// holds, and a team of one runs everything inline. A team leased while
// others held more than their share catches up through Rebalance once
// they hand workers back. Lease, Release and Close are safe for
// concurrent use. Close releases the workers; a finalizer releases them
// anyway if a Pool is garbage-collected while still open, so an
// un-Closed Pool does not leak goroutines permanently.
type Pool struct {
	*pool
}

// pool is the inner state shared with the worker goroutines. Keeping it
// behind a wrapper lets the cleanup run when the caller drops the Pool:
// the workers only reference the inner struct, so the wrapper can become
// unreachable while they are parked.
type pool struct {
	t int

	mu     sync.Mutex   // guards free, spare and closed, and orders writes to out
	free   []int        // parked workers no team holds
	spare  []*Team      // released teams, reused so a lease allocates nothing
	out    atomic.Int32 // teams leased and not yet released
	closed bool

	start []chan wake   // one per worker goroutine, wakes it for a region
	quit  chan struct{} // closed to release the workers
	once  sync.Once
}

// wake hands a worker its team's region and its tid in that team.
type wake struct {
	team *Team
	tid  int
}

// NewPool creates a pool of t threads (t ≤ 0 selects DefaultThreads).
func NewPool(t int) *Pool {
	if t <= 0 {
		t = DefaultThreads()
	}
	p := &pool{
		t:     t,
		free:  make([]int, t-1),
		start: make([]chan wake, t-1),
		quit:  make(chan struct{}),
	}
	for w := range p.start {
		p.free[w] = w
		p.start[w] = make(chan wake)
		go p.worker(w)
	}
	wrapper := &Pool{pool: p}
	runtime.AddCleanup(wrapper, func(inner *pool) { inner.close() }, p)
	return wrapper
}

// Threads returns the pool's thread count: the largest team it can lease.
func (p *pool) Threads() int { return p.t }

// Close releases the worker goroutines. Teams still out may be Released
// afterwards, harmlessly, but must run no more regions; a Lease after
// Close returns a team of one.
func (p *pool) Close() { p.close() }

func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.once.Do(func() { close(p.quit) })
}

func (p *pool) worker(w int) {
	for {
		select {
		case <-p.quit:
			return
		case wk := <-p.start[w]:
			wk.team.share(wk.tid)
			wk.team.done <- struct{}{}
		}
	}
}

// Lease hands the caller a team of min(t, share, 1 + free workers)
// threads, the caller being its worker 0, where share is
// max(1, pool threads / teams out) counting this one; t ≤ 0 or above the
// pool's size asks for the whole pool. It never waits for workers another
// team holds. The team is the caller's until Release.
func (p *Pool) Lease(t int) *Team {
	if t <= 0 || t > p.t {
		t = p.t
	}
	p.mu.Lock()
	var tm *Team
	if n := len(p.spare); n > 0 {
		tm = p.spare[n-1]
		p.spare = p.spare[:n-1]
	} else {
		tm = &Team{p: p.pool, workers: make([]int, 0, p.t-1), done: make(chan struct{}, p.t-1)}
	}
	p.out.Add(1)
	tm.limit = t
	tm.owner = p
	tm.resize(tm.fair())
	p.mu.Unlock()
	return tm
}

// Team is a leased slice of a Pool: the leasing goroutine as worker 0 plus
// the parked workers it was granted. Each team has its own region slot,
// cursor, barrier and panic slot, so teams leased from one pool run
// regions at the same time.
//
// A region is either static — ForRanges/ForRangesCancel hand worker tid
// the tid-th of t equal contiguous ranges, the shape for everything whose
// per-thread output must come out in row order — or claimed: ForChunks
// lets the workers take fixed-size chunks from a shared cursor, the shape
// for the dominance-test phases, whose per-point cost is too skewed for
// equal ranges to finish together (see the package comment).
//
// A Team belongs to the goroutine that leased it: only that goroutine
// dispatches its regions, and never from inside a body running on it.
type Team struct {
	p       *pool
	owner   *Pool // keeps the Pool reachable, and its workers alive, while leased
	limit   int   // threads asked for at Lease: the most the team ever holds
	workers []int // tid w+1 runs on pool worker workers[w]

	// Current parallel region, written by the dispatcher before waking
	// workers (the channel send orders these writes before the reads).
	body   func(tid, lo, hi int)
	n      int
	tEff   int          // static region: number of ranges
	chunk  int          // claimed region: chunk size; 0 marks a static region
	stop   *atomic.Bool // when non-nil and set, workers take no more work
	cursor atomic.Int64 // claimed region: first index not yet claimed
	busy   atomic.Int64 // claimed region: the workers' summed in-region ns

	pan panicSlot // first worker panic of the current region
	// done is where workers report region completion, buffered for every
	// worker a team of this pool can hold so none blocks on the report.
	done chan struct{}
}

// fair is the size the team should have now: its Lease limit, or its
// even split of the pool over the teams out if that is smaller.
func (tm *Team) fair() int {
	return min(tm.limit, max(1, tm.p.t/int(tm.p.out.Load())))
}

// resize grows the team toward t threads with free workers (none once
// the pool is closed), or shrinks it to t by handing its last workers
// back. p.mu must be held.
func (tm *Team) resize(t int) {
	p := tm.p
	k := t - tm.Threads()
	if k < 0 {
		keep := len(tm.workers) + k
		if !p.closed {
			p.free = append(p.free, tm.workers[keep:]...)
		}
		tm.workers = tm.workers[:keep]
		return
	}
	if p.closed {
		return
	}
	k = min(k, len(p.free))
	tm.workers = append(tm.workers, p.free[len(p.free)-k:]...)
	p.free = p.free[:len(p.free)-k]
}

// Threads returns the team's current size: 1 + the workers it holds.
func (tm *Team) Threads() int { return 1 + len(tm.workers) }

// Limit returns the most threads the team can ever hold: what its Lease
// asked for, clamped to the pool.
func (tm *Team) Limit() int { return tm.limit }

// Release returns the team's workers to the pool and the team itself for
// reuse: the next Lease may hand this *Team to another goroutine, so the
// caller must not touch it afterwards — not even to Release it again.
func (tm *Team) Release() {
	p := tm.p
	p.mu.Lock()
	tm.resize(1)
	tm.owner = nil
	p.out.Add(-1)
	p.spare = append(p.spare, tm)
	p.mu.Unlock()
}

// Yield returns the team's workers to the pool while its caller is busy
// elsewhere — a run paused in caller code leaves them to concurrent runs
// — and leaves a team of one that runs its regions inline. Rebalance
// takes workers back.
func (tm *Team) Yield() {
	tm.p.mu.Lock()
	tm.resize(1)
	tm.p.mu.Unlock()
}

// Rebalance resizes the team toward its share of the pool as it stands
// now — teams leased or released since its Lease move the even split —
// by handing surplus workers back or taking free ones; like Lease it
// never waits. The owner calls it between regions; a team already at its
// share returns without taking the pool's lock.
func (tm *Team) Rebalance() {
	t := tm.fair()
	if t == tm.Threads() {
		return
	}
	tm.p.mu.Lock()
	tm.resize(t)
	tm.p.mu.Unlock()
}

// share runs worker tid's part of the current region, recovering any
// panic into the region's panic slot. The worker still reaches the
// barrier, so a panicking body can never wedge the team; the dispatcher
// rethrows the panic on its own goroutine after the barrier completes.
func (tm *Team) share(tid int) {
	defer tm.pan.capture()
	if tm.chunk == 0 {
		if !tm.stopped() {
			lo, hi := staticRange(tid, tm.n, tm.tEff)
			tm.body(tid, lo, hi)
		}
		return
	}
	// Claim chunks in ascending order until the cursor passes n. The two
	// clock reads bracket everything the worker does in the region, so
	// busy / (workers × region wall time) is the region's efficiency.
	begin := time.Now()
	n, chunk, body := tm.n, tm.chunk, tm.body
	for !tm.stopped() {
		lo := int(tm.cursor.Add(int64(chunk))) - chunk
		if lo >= n {
			break
		}
		body(tid, lo, min(lo+chunk, n))
	}
	tm.busy.Add(int64(time.Since(begin)))
}

// stopped reports that the region should take no more work: its stop
// flag is raised, or a worker panicked.
func (tm *Team) stopped() bool {
	return (tm.stop != nil && tm.stop.Load()) || tm.pan.tripped()
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

// clamp clamps a requested worker count to the team's size and to the
// number of work items.
func (tm *Team) clamp(t, items int) int {
	if size := tm.Threads(); t <= 0 || t > size {
		t = size
	}
	return min(t, items)
}

// region runs one multi-threaded region: it publishes the region's
// parameters, wakes t−1 workers, takes worker 0's share itself, waits on
// the barrier, and rethrows a worker's panic on the caller's goroutine.
// It returns the region's summed busy time (claimed regions only).
func (tm *Team) region(t, n, chunk int, stop *atomic.Bool, body func(tid, lo, hi int)) time.Duration {
	tm.body, tm.n, tm.tEff, tm.chunk, tm.stop = body, n, t, chunk, stop
	tm.cursor.Store(0)
	tm.busy.Store(0)
	for tid := 1; tid < t; tid++ {
		tm.p.start[tm.workers[tid-1]] <- wake{tm, tid}
	}
	tm.share(0)
	for tid := 1; tid < t; tid++ {
		<-tm.done
	}
	busy := tm.busy.Load()
	tm.body, tm.stop = nil, nil
	if wp := tm.pan.p.Swap(nil); wp != nil {
		panic(wp)
	}
	return time.Duration(busy)
}

// ForRanges runs body(tid, lo, hi) over a static partition of [0, n) into
// min(team size, n) contiguous ranges on the team's workers.
func (tm *Team) ForRanges(n int, body func(tid, lo, hi int)) {
	tm.ForRangesCancel(0, n, nil, body)
}

// ForRangesCancel is ForRanges restricted to min(t, team size) workers
// (t ≤ 0 selects the whole team), with an optional cancellation flag:
// when stop is non-nil and set, the fan-out is abandoned — workers that
// have not started their share skip it entirely and the barrier completes
// immediately. This is how a canceled skyline query stops paying for
// parallel regions it no longer needs; a range body that wants to stop
// sooner polls the flag itself.
func (tm *Team) ForRangesCancel(t, n int, stop *atomic.Bool, body func(tid, lo, hi int)) {
	if n <= 0 {
		return
	}
	if t = tm.clamp(t, n); t == 1 {
		if stop == nil || !stop.Load() {
			body(0, 0, n)
		}
		return
	}
	tm.region(t, n, 0, stop, body)
}

// ForChunks runs body(tid, lo, hi) over [0, n) cut into chunks of the
// given size (the last one may be short), claimed in ascending order by
// min(t, team size) workers. stop, when non-nil, is polled before every
// claim, so a raised flag ends the region within one chunk per worker —
// bodies need no poll of their own — and a single worker walks the same
// chunks inline, which keeps that bound at t = 1. It returns the time
// the workers spent in the region, summed over workers: against workers
// × the region's wall time it says how much of the team the region kept
// busy.
func (tm *Team) ForChunks(t, n, chunk int, stop *atomic.Bool, body func(tid, lo, hi int)) time.Duration {
	if n <= 0 {
		return 0
	}
	if t = tm.clamp(t, (n+chunk-1)/chunk); t == 1 {
		begin := time.Now()
		for lo := 0; lo < n && (stop == nil || !stop.Load()); lo += chunk {
			body(0, lo, min(lo+chunk, n))
		}
		return time.Since(begin)
	}
	return tm.region(t, n, chunk, stop, body)
}

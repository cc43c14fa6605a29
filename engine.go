package skybench

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"skybench/internal/core"
	"skybench/internal/faults"
	"skybench/internal/par"
	"skybench/internal/point"
	"skybench/internal/stats"
)

// engineFaults is the Engine's fault-injection hook. It is nil outside
// tests (a nil injector is inert and free); robustness tests arm it via
// an export_test.go setter to place panics, errors, and stalls at the
// "engine.run" site.
var engineFaults *faults.Injector

// Engine is the prepare-once, query-many serving interface: construct a
// Dataset once, then call Run for every query against it. An Engine is
// safe for concurrent use by any number of goroutines — it keeps a
// free-list of computation contexts (each holding the scratch state of
// one in-flight query) over a single shared worker pool, so concurrent
// queries reuse warm scratch instead of allocating, and the machine runs
// one pool of threads rather than one per caller.
//
// Every Hybrid or Q-Flow run leases its own team from that pool: a share
// of max(1, T / runs in flight) threads of the Engine's T, capped by
// Query.Threads and by the workers other runs do not hold. A run alone
// gets the whole pool; concurrent runs — other callers' queries —
// compute side by side on disjoint workers, and
// at every α-block boundary each run moves its team toward its share as
// it stands then, so a run that started small grows once others finish.
//
// Run honors context cancellation and deadlines: the Hybrid and Q-Flow
// hot paths poll a cancellation flag at every α-block boundary and
// periodically inside their parallel phases, so a canceled query
// returns ctx.Err() promptly instead of finishing the computation.
// Baseline algorithms check cancellation only on entry.
//
// The zero-allocation steady state of the hot paths is preserved: a
// warm Engine serving repeated Hybrid or Q-Flow queries with
// Query.ReuseIndices set performs no allocations per Run (with a
// plain context.Context that has no Done channel, e.g.
// context.Background()).
type Engine struct {
	threads int

	mu     sync.Mutex
	pool   *par.Pool
	free   []*engineCtx
	closed bool
}

// engineCtx is the per-query scratch bundle an Engine hands out from
// its free-list: one core computation context plus the scratch of the
// preference transform (the ops and the view built from them). Nothing
// in it is sized to a dataset but the core context's working set.
type engineCtx struct {
	core     *core.Context
	pool     *par.Pool // the Engine's pool, which runs lease their teams from
	team     *par.Team // the current run's team
	st       stats.Stats
	ops      []point.PrefOp
	view     point.View // the dataset under the current query's preferences
	poisoned bool       // query panicked on this context; do not recycle it
}

// NewEngine creates an Engine whose worker pool has the given number of
// threads (≤ 0 selects all usable CPUs). Per-query thread counts are
// capped at this budget, and runs in flight together split it. Close
// releases the pool; an Engine dropped without Close is cleaned up by the
// garbage collector.
func NewEngine(threads int) *Engine {
	if threads <= 0 {
		threads = par.DefaultThreads()
	}
	return &Engine{threads: threads}
}

// Close releases the Engine's worker pool. The Engine must not be used
// afterwards; in-flight queries must have completed.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	e.free = nil
	if e.pool != nil {
		e.pool.Close()
		e.pool = nil
	}
}

// acquire pops a warm context from the free-list, creating the shared
// pool and a fresh context on first need. Steady state performs no
// allocation.
func (e *Engine) acquire() (*engineCtx, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("%w: Engine", ErrClosed)
	}
	if n := len(e.free); n > 0 {
		ec := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ec, nil
	}
	if e.pool == nil {
		e.pool = par.NewPool(e.threads)
	}
	return &engineCtx{core: core.NewContext(), pool: e.pool}, nil
}

// checkOpen reports an error once the Engine has been closed (the
// pool-less baseline path does not go through acquire).
func (e *Engine) checkOpen() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("%w: Engine", ErrClosed)
	}
	return nil
}

// release returns a context to the free-list for the next query.
func (e *Engine) release(ec *engineCtx) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.free = append(e.free, ec)
	}
}

// Run answers one query over ds. Result.Indices are positions in ds
// (also under Max/Ignore preferences — the transform preserves row order) and
// are caller-owned unless q.ReuseIndices is set. When ctx is canceled
// or its deadline passes, Run returns an error wrapping both
// ErrCanceled and ctx.Err() promptly — before starting any work if ctx
// is already dead, and from the hot paths' cancellation checkpoints
// otherwise. All other errors wrap the typed sentinels in errors.go.
//
// Run is the one computation of the serving stack: a static or stream
// Store collection answers an engine query with exactly this run over
// its frozen rows, so Run is equivalent to querying an anonymous
// Collection with result caching disabled. Services hosting several
// datasets or wanting cross-query caching should front the Engine with
// a Store.
func (e *Engine) Run(ctx context.Context, ds *Dataset, q Query) (Result, error) {
	return e.exec(ctx, ds, q)
}

// exec is the execution core behind Engine.Run and every engine query a
// local Collection answers.
func (e *Engine) exec(ctx context.Context, ds *Dataset, q Query) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, canceledErr(err)
	}
	if ds == nil {
		return Result{}, fmt.Errorf("%w: nil Dataset", ErrBadDataset)
	}
	// An empty Dataset has no dimensionality to validate preferences
	// against; every query over it is an empty skyline.
	if ds.n == 0 {
		return Result{}, nil
	}
	if len(q.Prefs) != 0 && len(q.Prefs) != ds.d {
		return Result{}, fmt.Errorf("%w: %d preferences for %d dimensions", ErrBadQuery, len(q.Prefs), ds.d)
	}

	// Auto is a Store-level spelling: a collection resolves it to Hybrid
	// before the engine ever sees the query, so reaching here with Auto
	// is a caller error.
	if q.Algorithm == Auto {
		return Result{}, fmt.Errorf("%w: Algorithm %s is a Store collection's spelling of %s; name the algorithm for Engine.Run", ErrBadQuery, Auto, Hybrid)
	}
	// Only the Hybrid/Q-Flow hot paths use the pool-backed contexts;
	// baselines spawn their own short-lived goroutines and allocate per
	// run anyway, so they skip the pool and scratch entirely.
	hot := q.Algorithm == Hybrid || q.Algorithm == QFlow
	if q.SkybandK < 0 {
		return Result{}, fmt.Errorf("%w: negative SkybandK %d", ErrBadQuery, q.SkybandK)
	}
	if q.SkybandK > 1 && !hot {
		return Result{}, fmt.Errorf("%w: algorithm %s does not support k-skyband queries (SkybandK=%d); use %s or %s", ErrBadQuery, q.Algorithm, q.SkybandK, Hybrid, QFlow)
	}
	threads := q.Threads
	if threads <= 0 || threads > e.threads {
		threads = e.threads
	}
	var ec *engineCtx
	if hot {
		var err error
		if ec, err = e.acquire(); err != nil {
			return Result{}, err
		}
		// The run's share of the pool: alone it gets all of it, beside
		// other runs an equal split (the lease grants fewer when the
		// others hold more).
		ec.team = ec.pool.Lease(threads)
		defer func() {
			ec.team.Release()
			ec.team = nil
			// A context whose query panicked is discarded, not recycled:
			// the panic may have left its scratch state (bucket arrays,
			// partial heaps) torn, and a poisoned context handed to the
			// next query would turn one contained failure into silent
			// corruption.
			if !ec.poisoned {
				e.release(ec)
			}
		}()
	} else if err := e.checkOpen(); err != nil {
		return Result{}, err
	}

	return e.execGuarded(ctx, ec, hot, ds, q, threads)
}

// execGuarded is the compute section of exec, with panic containment: a
// panic anywhere in the preference transform or the algorithms — including
// one rethrown as *par.WorkerPanic from a parallel-region worker — is
// converted into an error wrapping ErrQueryPanic, carrying the panic
// value and the panicking goroutine's stack. Only the offending query
// fails; the Engine and its pool stay serviceable.
func (e *Engine) execGuarded(ctx context.Context, ec *engineCtx, hot bool, ds *Dataset, q Query, threads int) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ec != nil {
				ec.poisoned = true
			}
			res, err = Result{}, panicErr(r, debug.Stack())
		}
	}()

	// Realise the preference transform. The hot paths never stage it:
	// they read ds through a view that applies it row by row inside the
	// one sweep they make over the input anyway (all-Min queries load
	// the Dataset's own rows). Baselines allocate per run regardless and
	// double as oracles for the hot paths, so they keep an explicitly
	// staged copy that shares no code with the view.
	var scratch []point.PrefOp
	if hot {
		scratch = ec.ops[:0]
	}
	ops, err := q.opsInto(scratch)
	if err != nil {
		return Result{}, err
	}
	if hot && ops != nil {
		ec.ops = ops // retain grown scratch capacity
	}
	staged := !point.IdentityOps(ops)
	if staged && point.EffectiveDims(ops) == 0 {
		return Result{}, fmt.Errorf("%w: query ignores every dimension", ErrBadQuery)
	}
	var m point.Matrix
	if hot {
		ec.view.Reset(ds.vals, ds.n, ds.d, ops)
	} else if staged {
		de := point.EffectiveDims(ops)
		dst := make([]float64, ds.n*de)
		point.StagePrefs(dst, ds.vals, ds.n, ds.d, ops)
		m = point.FromFlat(dst, ds.n, de)
	} else {
		m = point.FromFlat(ds.vals, ds.n, ds.d)
	}

	// Bridge ctx onto the hot paths' polling flag. The watcher goroutine
	// and its flag exist only when ctx can actually be canceled, so
	// context.Background() keeps the allocation-free steady state. The
	// flag is per-run (not stored on the engineCtx) so a watcher that is
	// scheduled late — after this run finished and the context was
	// recycled to a later query — stores into a dead flag instead of
	// aborting that query.
	var cancel *atomic.Bool
	var watcherDone chan struct{}
	if done := ctx.Done(); done != nil {
		cancel = new(atomic.Bool)
		watcherDone = make(chan struct{})
		go func(flag *atomic.Bool) {
			select {
			case <-done:
				flag.Store(true)
			case <-watcherDone:
			}
		}(cancel)
		// Deferred (not inline after the run) so the watcher is released
		// even when the run panics out through the recover above.
		defer close(watcherDone)
	}

	if err := faults.Check(engineFaults, "engine.run"); err != nil {
		return Result{}, err
	}
	if hot {
		res, err = runOnContext(ec, q, cancel)
	} else {
		res, err = runBaseline(m, q, threads)
	}

	if cerr := ctx.Err(); cerr != nil {
		// The run may have been abandoned mid-flight; its partial result
		// must not escape.
		return Result{}, canceledErr(cerr)
	}
	if err != nil {
		return Result{}, err
	}
	// Detach the context-path result unless the caller opted into the
	// zero-copy alias; baseline indices are freshly allocated already.
	if !q.ReuseIndices && (q.Algorithm == Hybrid || q.Algorithm == QFlow) {
		res.Indices = append([]int(nil), res.Indices...)
		if res.Counts != nil {
			res.Counts = append([]int32(nil), res.Counts...)
		}
	}
	// Materialize the trace last, from the always-on counters, so only
	// traced queries pay the allocation (the zero-alloc guards run with
	// Trace unset).
	if q.Trace {
		res.Trace = traceFromResult(q.Algorithm, q.SkybandK, &res)
	}
	return res, nil
}

// runOnContext executes a hot-path query over ec.view on an acquired
// context and its leased team, with cancellation plumbed through.
func runOnContext(ec *engineCtx, q Query, cancel *atomic.Bool) (Result, error) {
	switch q.Algorithm {
	case Hybrid:
		ec.st = stats.Stats{}
		start := time.Now()
		idx := ec.core.Hybrid(ec.view, core.HybridOptions{
			Team:          ec.team,
			Alpha:         q.Alpha,
			Pivot:         q.Pivot.internal(),
			Beta:          q.Beta,
			Seed:          q.Seed,
			SkybandK:      q.SkybandK,
			NoPrefilter:   q.Ablation.NoPrefilter,
			NoMS:          q.Ablation.NoMS,
			NoLevel2:      q.Ablation.NoLevel2,
			NoPhase2Split: q.Ablation.NoPhase2Split,
			NoCodes:       q.Ablation.NoCodes,
			Stats:         &ec.st,
			Progressive:   q.Progressive,
			Cancel:        cancel,
		})
		res := assembleResult(idx, &ec.st, ec.view.N(), time.Since(start))
		res.Counts = ec.core.Counts()
		return res, nil
	case QFlow:
		ec.st = stats.Stats{}
		start := time.Now()
		idx := ec.core.QFlow(ec.view, core.QFlowOptions{
			Team:        ec.team,
			Alpha:       q.Alpha,
			SkybandK:    q.SkybandK,
			Stats:       &ec.st,
			Progressive: q.Progressive,
			Cancel:      cancel,
		})
		res := assembleResult(idx, &ec.st, ec.view.N(), time.Since(start))
		res.Counts = ec.core.Counts()
		return res, nil
	default:
		panic(fmt.Sprintf("skybench: runOnContext called for non-hot-path algorithm %d", int(q.Algorithm)))
	}
}

// opsInto translates the query's preferences into transform ops, appending
// to a caller-provided scratch slice so a warm Engine can do it without
// allocating. It returns nil when the query has no explicit preferences.
// Length validation against the dataset happens in Run.
func (q *Query) opsInto(scratch []point.PrefOp) ([]point.PrefOp, error) {
	if len(q.Prefs) == 0 {
		return nil, nil
	}
	ops := scratch
	for i, p := range q.Prefs {
		op, err := p.op()
		if err != nil {
			return nil, fmt.Errorf("%w: %v on dimension %d", ErrBadQuery, err, i)
		}
		ops = append(ops, op)
	}
	return ops, nil
}

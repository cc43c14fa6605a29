package skybench

import (
	"context"
	"runtime/debug"
)

// Future is the handle of one asynchronously submitted query. Wait (or
// Done + Result) delivers the outcome exactly as Run would have.
type Future struct {
	done chan struct{}
	res  *QueryResult
	hit  bool
	err  error
}

// CacheHit blocks until the query finishes and reports whether it was
// answered by its own lookup in the collection's result cache — the
// call that did the lookup says so, which two reads of the shared
// CacheStats counters around a Submit cannot when requests overlap. A
// stale fallback is not a hit.
func (f *Future) CacheHit() bool {
	<-f.done
	return f.hit
}

// Done returns a channel closed when the query has finished.
func (f *Future) Done() <-chan struct{} { return f.done }

// Result blocks until the query finishes and returns its outcome.
func (f *Future) Result() (*QueryResult, error) {
	<-f.done
	return f.res, f.err
}

// Wait blocks until the query finishes or ctx is done, whichever comes
// first. A ctx abort abandons only the wait — the submitted query keeps
// running under its own context and the Future stays usable.
func (f *Future) Wait(ctx context.Context) (*QueryResult, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return nil, canceledErr(ctx.Err())
	}
}

// Submit starts the query on its own goroutine and returns a Future for
// it — the async form of Run, sharing the same cache and shard fan-out.
// The query runs under ctx: cancel it to abandon the computation.
//
// Submissions pass through the Store's admission control
// (StoreOptions.MaxInflight/MaxQueue): beyond the queue bound the
// Future fails immediately with ErrOverloaded, and after Store.Close it
// fails immediately with ErrClosed — both decided synchronously on the
// submitting goroutine, never by a panic. Failed admission still honors
// Query.AllowStale.
func (c *Collection) Submit(ctx context.Context, q Query) *Future {
	f := &Future{done: make(chan struct{})}
	adm, err := c.owner.beginAdmit()
	if err != nil {
		plan := c.resolve(&q)
		f.res, f.err = c.staleFallback(&q, plan, err)
		close(f.done)
		return f
	}
	go func() {
		defer close(f.done)
		// A panic anywhere below must resolve this Future, not crash the
		// process or wedge Wait; it poisons only this query.
		defer func() {
			if r := recover(); r != nil {
				f.res, f.err = nil, panicErr(r, debug.Stack())
			}
			adm.release()
		}()
		if err := adm.wait(ctx); err != nil {
			plan := c.resolve(&q)
			f.res, f.err = c.staleFallback(&q, plan, err)
			return
		}
		f.res, f.hit, f.err = c.runReport(ctx, q)
	}()
	return f
}

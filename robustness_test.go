package skybench_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skybench"
	"skybench/internal/faults"
)

// gateSource is a StreamSource whose materialization can be stalled at
// will — the deterministic stand-in for a stream index holding its
// write lock through a long rebuild, which is how deadline and
// overload behavior gets exercised without sleeps in the hot path.
type gateSource struct {
	d     int
	epoch atomic.Uint64
	block atomic.Bool
	gate  chan struct{} // blocked LiveSnapshot calls wait here

	mu   sync.Mutex
	vals []float64
	ids  []uint64
}

func newGateSource(rows [][]float64) *gateSource {
	s := &gateSource{d: len(rows[0]), gate: make(chan struct{})}
	for i, r := range rows {
		s.vals = append(s.vals, r...)
		s.ids = append(s.ids, uint64(i+1))
	}
	s.epoch.Store(1)
	return s
}

func (s *gateSource) D() int            { return s.d }
func (s *gateSource) LiveEpoch() uint64 { return s.epoch.Load() }

func (s *gateSource) LiveSnapshot() ([]float64, []uint64, uint64) {
	if s.block.Load() {
		<-s.gate
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.vals), slices.Clone(s.ids), s.epoch.Load()
}

// TestStorePanicIsolation: an injected panic inside one engine run must
// surface as ErrQueryPanic on that query alone — the sibling collection
// keeps serving, and so does the panicked collection on its next query
// (the poisoned engine context is discarded, not recycled).
func TestStorePanicIsolation(t *testing.T) {
	in := faults.New(1)
	in.Arm(faults.Plan{Site: "engine.run", Panic: true, Count: 1})
	skybench.SetEngineFaults(in)
	defer skybench.SetEngineFaults(nil)

	st := skybench.NewStore(2)
	defer st.Close()
	rowsA := storeTestData(t, "independent", 400, 3, 11)
	rowsB := storeTestData(t, "anticorrelated", 400, 3, 12)
	dsA, _ := skybench.NewDataset(rowsA)
	dsB, _ := skybench.NewDataset(rowsB)
	// Cache disabled so every Run reaches the engine (and the fault site).
	colA, err := st.Attach("a", dsA, skybench.CollectionOptions{CacheCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	colB, err := st.Attach("b", dsB, skybench.CollectionOptions{CacheCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := colA.Run(ctx, skybench.Query{}); !errors.Is(err, skybench.ErrQueryPanic) {
		t.Fatalf("query under injected panic = %v, want ErrQueryPanic", err)
	}
	// The panic poisoned exactly one query: both collections serve.
	if res, err := colB.Run(ctx, skybench.Query{}); err != nil || res.Len() == 0 {
		t.Fatalf("sibling collection after panic: res=%v err=%v", res, err)
	}
	if res, err := colA.Run(ctx, skybench.Query{}); err != nil || res.Len() == 0 {
		t.Fatalf("panicked collection's next query: res=%v err=%v", res, err)
	}
	if got := in.Hits("engine.run"); got == 0 {
		t.Fatal("engine.run fault site never hit")
	}
}

// TestStoreDeadline: a stalled stream materialization must fail the
// query when its deadline passes, with an error naming both the cancel
// family and the deadline specifically.
func TestStoreDeadline(t *testing.T) {
	st := skybench.NewStoreWithOptions(skybench.StoreOptions{Threads: 2, DefaultTimeout: 25 * time.Millisecond})
	defer st.Close()
	src := newGateSource(storeTestData(t, "independent", 200, 3, 5))
	col, err := st.AttachStream("live", src, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src.block.Store(true)
	defer close(src.gate) // release the abandoned materialization

	_, err = col.Run(context.Background(), skybench.Query{})
	if !errors.Is(err, skybench.ErrDeadlineExceeded) {
		t.Fatalf("stalled query = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, skybench.ErrCanceled) {
		t.Fatalf("deadline error %v must also wrap ErrCanceled", err)
	}
	// An explicit caller deadline wins over the collection default.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := col.Run(ctx, skybench.Query{}); !errors.Is(err, skybench.ErrDeadlineExceeded) {
		t.Fatalf("caller-deadline query = %v, want ErrDeadlineExceeded", err)
	}
	if e := time.Since(start); e > 20*time.Millisecond {
		t.Fatalf("caller 5ms deadline honored after %v", e)
	}
}

// TestStoreStaleFallback: with AllowStale, a query that misses its
// deadline serves the last cached result for its shape — marked Stale,
// from the older epoch — instead of the error; without AllowStale the
// error stands. The shared cache entry itself must never be tainted. An
// Auto query degrades too: the fallback keys it as its run stored it, as
// Hybrid — on a collection attached with the deprecated Shards, which
// changes nothing.
func TestStoreStaleFallback(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		algo   skybench.Algorithm
	}{
		{"hybrid", 1, skybench.Hybrid},
		{"auto sharded", 2, skybench.Auto},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := skybench.NewStoreWithOptions(skybench.StoreOptions{Threads: 2, DefaultTimeout: 25 * time.Millisecond})
			defer st.Close()
			src := newGateSource(storeTestData(t, "anticorrelated", 300, 3, 6))
			col, err := st.AttachStream("live", src, skybench.CollectionOptions{Shards: tc.shards})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			q := skybench.Query{SkybandK: 2, Algorithm: tc.algo}

			// Warm the cache at epoch 1.
			fresh, err := col.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if fresh.Stale {
				t.Fatal("fresh result marked stale")
			}

			// Epoch advances and materialization stalls: fresh is impossible.
			src.epoch.Store(2)
			src.block.Store(true)
			defer close(src.gate)

			if _, err := col.Run(ctx, q); !errors.Is(err, skybench.ErrDeadlineExceeded) {
				t.Fatalf("without AllowStale = %v, want ErrDeadlineExceeded", err)
			}
			stale := q
			stale.AllowStale = true
			res, err := col.Run(ctx, stale)
			if err != nil {
				t.Fatalf("AllowStale degradation failed: %v", err)
			}
			if !res.Stale {
				t.Fatal("degraded result not marked Stale")
			}
			if res.Epoch != fresh.Epoch {
				t.Fatalf("stale result from epoch %d, want cached epoch %d", res.Epoch, fresh.Epoch)
			}
			if !slices.Equal(res.Indices, fresh.Indices) || !slices.Equal(res.Counts, fresh.Counts) {
				t.Fatal("stale result differs from the cached one")
			}
			if (res.Plan == nil) != (fresh.Plan == nil) {
				t.Fatalf("stale plan %+v, fresh plan %+v", res.Plan, fresh.Plan)
			}
			if fresh.Stale {
				t.Fatal("degradation tainted the shared cache entry")
			}
			// A different query shape has no cached result: the error stands
			// even with AllowStale.
			stale.SkybandK = 3
			if _, err := col.Run(ctx, stale); !errors.Is(err, skybench.ErrDeadlineExceeded) {
				t.Fatalf("AllowStale with cold shape = %v, want ErrDeadlineExceeded", err)
			}
		})
	}
}

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// runWithin is col.Run that fails the test, instead of hanging it, when
// the call has not returned after d.
func runWithin(t *testing.T, d time.Duration, col *skybench.Collection, ctx context.Context, q skybench.Query) (*skybench.QueryResult, error) {
	t.Helper()
	type outcome struct {
		res *skybench.QueryResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := col.Run(ctx, q)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(d):
		t.Fatalf("Run still blocked after %v", d)
		return nil, nil
	}
}

// parkRuns starts n Runs of q on their own goroutines and returns the
// channel their errors arrive on (a stale answer counts as an error).
func parkRuns(col *skybench.Collection, ctx context.Context, q skybench.Query, n int) <-chan error {
	errs := make(chan error, n)
	for range n {
		go func() {
			res, err := col.Run(ctx, q)
			if err == nil && res.Stale {
				err = errors.New("stale answer")
			}
			errs <- err
		}()
	}
	return errs
}

// TestStoreOverload: admission control under MaxInflight/MaxQueue —
// beyond the queue bound a Run fails at once with ErrOverloaded;
// AllowStale degrades an overloaded Run to the cached result; and
// draining the inflight slot re-admits.
func TestStoreOverload(t *testing.T) {
	st := skybench.NewStoreWithOptions(skybench.StoreOptions{Threads: 2, MaxInflight: 1, MaxQueue: 1})
	defer st.Close()
	src := newGateSource(storeTestData(t, "independent", 300, 3, 8))
	col, err := st.AttachStream("live", src, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Warm the cache, then stall the source and invalidate.
	fresh, err := col.Run(ctx, skybench.Query{})
	if err != nil {
		t.Fatal(err)
	}
	src.epoch.Store(2)
	src.block.Store(true)

	// Inflight slot taken (the query stalls inside the source); queue
	// slot taken; a third Run must fail without blocking.
	parked := parkRuns(col, ctx, skybench.Query{}, 2)
	waitUntil(t, "one Run holds the slot and one queues", func() bool {
		return st.Inflight() == 1 && st.QueueDepth() == 1
	})
	if _, err := runWithin(t, 5*time.Second, col, ctx, skybench.Query{}); !errors.Is(err, skybench.ErrOverloaded) {
		t.Fatalf("over-bound Run = %v, want ErrOverloaded", err)
	}
	// Overload + AllowStale degrades to the cached result immediately.
	res, err := runWithin(t, 5*time.Second, col, ctx, skybench.Query{AllowStale: true})
	if err != nil || !res.Stale || res.CacheHit || res.Epoch != fresh.Epoch {
		t.Fatalf("overloaded AllowStale = (%+v, %v), want stale epoch-%d result", res, err, fresh.Epoch)
	}

	// Unblock: the stalled and queued Runs complete fresh.
	src.block.Store(false)
	close(src.gate)
	for i := range 2 {
		if err := <-parked; err != nil {
			t.Fatalf("parked Run %d after drain: %v", i+1, err)
		}
	}
	// Capacity is back.
	if _, err := col.Run(ctx, skybench.Query{}); err != nil {
		t.Fatalf("post-drain Run: %v", err)
	}
}

// TestQueuedRunHonoursDefaultTimeout: the Store's DefaultTimeout bounds
// a Run's wait for admission, not just its execution. One Run holds the
// only slot on a stalled source under its own 3 s deadline; a Run with
// no deadline of its own queued behind it fails at the 100 ms default,
// or with AllowStale degrades to the cached answer at that point.
func TestQueuedRunHonoursDefaultTimeout(t *testing.T) {
	st := skybench.NewStoreWithOptions(skybench.StoreOptions{Threads: 2, MaxInflight: 1, MaxQueue: 1,
		DefaultTimeout: 100 * time.Millisecond})
	defer st.Close()
	src := newGateSource(storeTestData(t, "independent", 300, 3, 8))
	gated, err := st.AttachStream("gated", src, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := skybench.NewDataset(storeTestData(t, "correlated", 200, 3, 9))
	fast, err := st.Attach("fast", ds, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	cached, err := fast.Run(bg, skybench.Query{})
	if err != nil {
		t.Fatal(err)
	}

	src.block.Store(true)
	holdCtx, cancel := context.WithTimeout(bg, 3*time.Second)
	defer cancel()
	held := make(chan error, 1)
	go func() {
		_, err := gated.Run(holdCtx, skybench.Query{})
		held <- err
	}()
	defer func() {
		close(src.gate)
		<-held
	}()
	waitUntil(t, "the holder takes the slot", func() bool { return st.Inflight() == 1 })

	start := time.Now()
	if _, err := runWithin(t, 5*time.Second, fast, bg, skybench.Query{}); !errors.Is(err, skybench.ErrDeadlineExceeded) {
		t.Fatalf("queued Run = %v, want ErrDeadlineExceeded", err)
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("queued Run gave up after %v, want about the 100ms default", e)
	}

	res, err := runWithin(t, 5*time.Second, fast, bg, skybench.Query{AllowStale: true})
	if err != nil {
		t.Fatalf("queued AllowStale Run = %v, want the cached answer", err)
	}
	if !res.Stale || res.CacheHit || !slices.Equal(res.Indices, cached.Indices) {
		t.Fatalf("queued AllowStale Run: Stale %v, CacheHit %v, %d rows; want the %d cached rows, stale, no hit",
			res.Stale, res.CacheHit, res.Len(), cached.Len())
	}
}

// TestRunAfterClose: Runs against a closed Store fail with ErrClosed at
// once, never by panicking on a closed channel.
func TestRunAfterClose(t *testing.T) {
	st := skybench.NewStoreWithOptions(skybench.StoreOptions{Threads: 1, MaxInflight: 2})
	ds, _ := skybench.NewDataset(storeTestData(t, "correlated", 100, 3, 3))
	col, err := st.Attach("c", ds, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	if _, err := runWithin(t, 5*time.Second, col, context.Background(), skybench.Query{}); !errors.Is(err, skybench.ErrClosed) {
		t.Fatalf("post-Close Run = %v, want ErrClosed", err)
	}
	if _, err := col.Run(context.Background(), skybench.Query{AllowStale: true}); !errors.Is(err, skybench.ErrClosed) {
		t.Fatalf("post-Close AllowStale Run = %v, want ErrClosed", err)
	}
}

// TestRunCloseRace: many goroutines hammer Run while the Store closes
// concurrently. Every Run must return — success or ErrClosed (or
// overload, or cancellation from the admission wait), never a panic and
// never a hang. The Store serves through a caller-owned Engine, so the
// race covers admission and collection shutdown, the paths Close
// actually contends on, without violating the engine's own close
// contract for in-flight queries.
func TestRunCloseRace(t *testing.T) {
	rows := storeTestData(t, "independent", 200, 3, 4)
	eng := skybench.NewEngine(2)
	defer eng.Close()
	for iter := 0; iter < 25; iter++ {
		st := skybench.NewStoreOnEngine(skybench.StoreOptions{MaxInflight: 2, MaxQueue: 2}, eng)
		ds, _ := skybench.NewDataset(rows)
		col, err := st.Attach("c", ds, skybench.CollectionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 4; i++ {
					res, err := col.Run(context.Background(), skybench.Query{})
					switch {
					case err == nil:
						if res == nil || res.Len() == 0 {
							t.Error("successful Run with empty result")
							return
						}
					case errors.Is(err, skybench.ErrClosed) || errors.Is(err, skybench.ErrOverloaded) || errors.Is(err, skybench.ErrCanceled):
						// Legitimate shutdown/admission outcomes.
					default:
						t.Errorf("Run racing Close = %v", err)
						return
					}
				}
			}()
		}
		close(start)
		st.Close()
		wg.Wait()
	}
}

// TestRunCanceledContext: a pre-canceled context fails immediately
// with the cancel family, not a deadline error and not a hang — with
// admission unbounded and bounded alike.
func TestRunCanceledContext(t *testing.T) {
	for _, opts := range []skybench.StoreOptions{
		{Threads: 1},
		{Threads: 1, MaxInflight: 1, MaxQueue: 1},
	} {
		st := skybench.NewStoreWithOptions(opts)
		defer st.Close()
		ds, _ := skybench.NewDataset(storeTestData(t, "independent", 100, 3, 2))
		col, err := st.Attach("c", ds, skybench.CollectionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := col.Run(ctx, skybench.Query{}); !errors.Is(err, skybench.ErrCanceled) {
			t.Fatalf("MaxInflight %d: pre-canceled Run = %v, want ErrCanceled", opts.MaxInflight, err)
		}
	}
}

// panicSource panics inside LiveSnapshot while armed.
type panicSource struct {
	d     int
	armed atomic.Bool
}

func (s *panicSource) D() int            { return s.d }
func (s *panicSource) LiveEpoch() uint64 { return 1 }
func (s *panicSource) LiveSnapshot() ([]float64, []uint64, uint64) {
	if s.armed.Load() {
		panic("injected materialization fault")
	}
	return []float64{1, 2}, []uint64{1}, 1
}

// TestRunLeavesNoGoroutines: admitted, queued, overloaded, canceled and
// panicking Runs leave nothing running once the Store is closed — the
// goroutine count returns to where it was before the Store existed.
func TestRunLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	st := skybench.NewStoreWithOptions(skybench.StoreOptions{Threads: 2, MaxInflight: 1, MaxQueue: 1})
	src := newGateSource(storeTestData(t, "independent", 200, 3, 8))
	gated, err := st.AttachStream("gated", src, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := skybench.NewDataset(storeTestData(t, "independent", 500, 3, 9))
	plain, err := st.Attach("plain", ds, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()

	// Admitted.
	if _, err := plain.Run(bg, skybench.Query{SkybandK: 2}); err != nil {
		t.Fatal(err)
	}
	// Panicking: with an un-cancelable context the panic reaches Run's
	// own recover, with a cancelable one the side read's.
	pctx, pcancel := context.WithTimeout(bg, time.Minute)
	defer pcancel()
	for i, ctx := range []context.Context{bg, pctx} {
		src := &panicSource{d: 2}
		src.armed.Store(true)
		col, err := st.AttachStream(fmt.Sprint("panic", i), src, skybench.CollectionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := col.Run(ctx, skybench.Query{}); !errors.Is(err, skybench.ErrQueryPanic) {
			t.Fatalf("panicking Run = %v, want ErrQueryPanic", err)
		}
	}
	// Canceled.
	cctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := plain.Run(cctx, skybench.Query{}); !errors.Is(err, skybench.ErrCanceled) {
		t.Fatalf("canceled Run = %v, want ErrCanceled", err)
	}
	// Queued behind a stalled holder: one times out, one is admitted once
	// the holder drains; a third is overloaded.
	src.block.Store(true)
	holder := parkRuns(gated, bg, skybench.Query{}, 1)
	waitUntil(t, "the holder takes the slot", func() bool { return st.Inflight() == 1 })
	qctx, qcancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer qcancel()
	if _, err := plain.Run(qctx, skybench.Query{}); !errors.Is(err, skybench.ErrDeadlineExceeded) {
		t.Fatalf("queued Run past its deadline = %v, want ErrDeadlineExceeded", err)
	}
	queued := parkRuns(plain, bg, skybench.Query{}, 1)
	waitUntil(t, "a Run queues", func() bool { return st.QueueDepth() == 1 })
	if _, err := plain.Run(bg, skybench.Query{}); !errors.Is(err, skybench.ErrOverloaded) {
		t.Fatalf("over-bound Run = %v, want ErrOverloaded", err)
	}
	close(src.gate)
	for _, ch := range []<-chan error{holder, queued} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}

	st.Close()
	waitUntil(t, fmt.Sprintf("the goroutine count is back at %d", baseline), func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// TestOversizedAlphaBeta: α and β arrive from the wire unchecked, and
// each sizes an allocation — α the per-block scratch, β the
// pre-filter's threads·β·d queue storage. An oversized value must return
// exactly the default-tuned answer (same rows, same dominator counts),
// not ask the runtime for terabytes, which is a fatal error no recover
// contains. The queries run in a child process, so that a regression
// fails this test instead of killing the test binary.
func TestOversizedAlphaBeta(t *testing.T) {
	if os.Getenv("SKYBENCH_OVERSIZED_CHILD") != "" {
		runOversizedAlphaBeta(t)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestOversizedAlphaBeta$", "-test.timeout=60s")
	cmd.Env = append(os.Environ(), "SKYBENCH_OVERSIZED_CHILD=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out[:min(len(out), 2000)])
	}
}

func runOversizedAlphaBeta(t *testing.T) {
	ds, err := skybench.NewDataset(storeTestData(t, "anticorrelated", 3000, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	eng := skybench.NewEngine(2)
	defer eng.Close()
	ctx := context.Background()
	for _, alg := range []skybench.Algorithm{skybench.Hybrid, skybench.QFlow} {
		for _, threads := range []int{1, 2} {
			base := skybench.Query{Algorithm: alg, Threads: threads, SkybandK: 2}
			want, err := eng.Run(ctx, ds, base)
			if err != nil {
				t.Fatal(err)
			}
			huge := base
			huge.Alpha, huge.Beta = 1<<40, 1<<40
			got, err := eng.Run(ctx, ds, huge)
			if err != nil {
				t.Fatalf("%v T=%d: %v", alg, threads, err)
			}
			if !maps.Equal(bandMap(got.Indices, got.Counts), bandMap(want.Indices, want.Counts)) {
				t.Errorf("%v T=%d: oversized α/β answered %d rows, the defaults %d", alg, threads, len(got.Indices), len(want.Indices))
			}
		}
	}
}

package skybench_test

import (
	"context"
	"errors"
	"maps"
	"os"
	"os/exec"
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
// Auto query on a sharded collection degrades too: the fallback keys it
// as its run stored it, as Hybrid at fan-out 1.
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

// TestStoreOverload: admission control under MaxInflight/MaxQueue —
// beyond the queue bound submissions fail fast with ErrOverloaded,
// decided synchronously; AllowStale degrades an overloaded submission
// to the cached result; and draining the inflight slot re-admits.
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

	// Inflight slot taken (the submission stalls inside the source);
	// queue slot taken; the third submission must fail immediately.
	f1 := col.Submit(ctx, skybench.Query{})
	f2 := col.Submit(ctx, skybench.Query{})
	f3 := col.Submit(ctx, skybench.Query{})
	select {
	case <-f3.Done():
	default:
		t.Fatal("over-bound submission did not fail synchronously")
	}
	if _, err := f3.Result(); !errors.Is(err, skybench.ErrOverloaded) {
		t.Fatalf("over-bound submission = %v, want ErrOverloaded", err)
	}
	// Overload + AllowStale degrades to the cached result immediately.
	f4 := col.Submit(ctx, skybench.Query{AllowStale: true})
	res, err := f4.Result()
	if err != nil || !res.Stale || res.Epoch != fresh.Epoch {
		t.Fatalf("overloaded AllowStale = (%+v, %v), want stale epoch-%d result", res, err, fresh.Epoch)
	}

	// Unblock: the stalled and queued submissions complete fresh.
	src.block.Store(false)
	close(src.gate)
	for i, f := range []*skybench.Future{f1, f2} {
		if res, err := f.Result(); err != nil || res.Stale {
			t.Fatalf("submission %d after drain: res=%+v err=%v", i+1, res, err)
		}
	}
	// Capacity is back.
	if _, err := col.Submit(ctx, skybench.Query{}).Result(); err != nil {
		t.Fatalf("post-drain submission: %v", err)
	}
}

// TestSubmitAfterClose: submissions against a closed Store resolve
// deterministically with ErrClosed — synchronously, and never by
// panicking on a closed channel.
func TestSubmitAfterClose(t *testing.T) {
	st := skybench.NewStoreWithOptions(skybench.StoreOptions{Threads: 1, MaxInflight: 2})
	ds, _ := skybench.NewDataset(storeTestData(t, "correlated", 100, 3, 3))
	col, err := st.Attach("c", ds, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	f := col.Submit(context.Background(), skybench.Query{})
	select {
	case <-f.Done():
	default:
		t.Fatal("post-Close submission did not resolve synchronously")
	}
	if _, err := f.Result(); !errors.Is(err, skybench.ErrClosed) {
		t.Fatalf("post-Close submission = %v, want ErrClosed", err)
	}
	if _, err := col.Run(context.Background(), skybench.Query{}); !errors.Is(err, skybench.ErrClosed) {
		t.Fatalf("post-Close Run = %v, want ErrClosed", err)
	}
}

// TestSubmitCloseRace: many goroutines hammer Submit while the Store
// closes concurrently. Every Future must resolve — success or ErrClosed
// (or context cancellation from the admission wait), never a panic and
// never a hang. The Store serves through a caller-owned Engine, so the
// race covers admission and collection shutdown, the paths Close
// actually contends on, without violating the engine's own close
// contract for in-flight queries.
func TestSubmitCloseRace(t *testing.T) {
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
					f := col.Submit(context.Background(), skybench.Query{})
					res, err := f.Result()
					switch {
					case err == nil:
						if res == nil || res.Len() == 0 {
							t.Error("successful submission with empty result")
							return
						}
					case errors.Is(err, skybench.ErrClosed) || errors.Is(err, skybench.ErrOverloaded) || errors.Is(err, skybench.ErrCanceled):
						// Legitimate shutdown/admission outcomes.
					default:
						t.Errorf("submission racing Close = %v", err)
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
// with the cancel family, not a deadline error and not a hang.
func TestRunCanceledContext(t *testing.T) {
	st := skybench.NewStore(1)
	defer st.Close()
	ds, _ := skybench.NewDataset(storeTestData(t, "independent", 100, 3, 2))
	col, err := st.Attach("c", ds, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := col.Run(ctx, skybench.Query{}); !errors.Is(err, skybench.ErrCanceled) {
		t.Fatalf("pre-canceled Run = %v, want ErrCanceled", err)
	}
	if _, err := col.Submit(ctx, skybench.Query{}).Result(); !errors.Is(err, skybench.ErrCanceled) {
		t.Fatalf("pre-canceled Submit = %v, want ErrCanceled", err)
	}
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

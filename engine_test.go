package skybench_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"skybench"

	"skybench/internal/dataset"
	"skybench/internal/point"
	"skybench/internal/verify"
)

// TestEngineMatchesCompute cross-checks Engine.Run against the
// brute-force oracle for the hot-path algorithms and a baseline, reusing
// one Engine across differently-shaped queries so the free-list sees
// shrinking and growing workloads.
func TestEngineMatchesCompute(t *testing.T) {
	eng := skybench.NewEngine(4)
	defer eng.Close()
	ctx := context.Background()
	for _, alg := range []skybench.Algorithm{skybench.Hybrid, skybench.QFlow, skybench.BSkyTree} {
		for _, n := range []int{1, 100, 5000} {
			data := contextTestData(t, n, 6)
			want := verify.BruteForce(point.FromRows(data))
			ds, err := skybench.NewDataset(data)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Run(ctx, ds, skybench.Query{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			if !sameIndexSet(got.Indices, want) {
				t.Fatalf("alg=%s n=%d: engine selects %d points, oracle selects %d",
					alg, n, len(got.Indices), len(want))
			}
		}
	}
}

// prefOracle computes the expected result of a preference query by doing
// what callers without Query.Prefs have to do: negate maximized columns,
// drop ignored ones, and run a minimize-everything query.
func prefOracle(t *testing.T, data [][]float64, prefs []skybench.Pref, alg skybench.Algorithm) []int {
	t.Helper()
	var rows [][]float64
	for _, row := range data {
		var out []float64
		for j, p := range prefs {
			switch p {
			case skybench.Min:
				out = append(out, row[j])
			case skybench.Max:
				out = append(out, -row[j])
			}
		}
		rows = append(rows, out)
	}
	res, err := runRows(rows, skybench.Query{Algorithm: alg, Threads: 2})
	if err != nil {
		t.Fatalf("oracle %s: %v", alg, err)
	}
	return res.Indices
}

// TestEnginePrefsOracle is the subspace/maximize cross-check: for every
// algorithm and each of the paper's three distributions, Engine.Run with
// Max/Ignore preferences must select exactly the points an oracle finds
// by negating/projecting columns and minimizing every dimension.
func TestEnginePrefsOracle(t *testing.T) {
	prefs := []skybench.Pref{skybench.Min, skybench.Max, skybench.Ignore, skybench.Min, skybench.Max}
	eng := skybench.NewEngine(2)
	defer eng.Close()
	ctx := context.Background()
	for _, dist := range []string{"correlated", "independent", "anticorrelated"} {
		data := storeTestData(t, dist, 1200, len(prefs), 7)
		ds, err := skybench.NewDataset(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range skybench.Algorithms {
			want := prefOracle(t, data, prefs, alg)
			got, err := eng.Run(ctx, ds, skybench.Query{Algorithm: alg, Prefs: prefs})
			if err != nil {
				t.Fatalf("%s/%s: %v", dist, alg, err)
			}
			if !sameIndexSet(got.Indices, want) {
				t.Errorf("%s/%s: engine selects %d points under prefs, oracle says %d",
					dist, alg, len(got.Indices), len(want))
			}
		}
	}
}

// TestEngineConcurrent hammers one Engine over one shared Dataset from
// many goroutines — the serving scenario the Engine exists for, and the
// CI race-detector target. Queries mix algorithms, thread counts, and
// preferences; each result is checked against a precomputed answer.
func TestEngineConcurrent(t *testing.T) {
	data := contextTestData(t, 12000, 5)
	ds, err := skybench.NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	prefs := []skybench.Pref{skybench.Min, skybench.Max, skybench.Min, skybench.Ignore, skybench.Min}
	eng := skybench.NewEngine(4)
	defer eng.Close()
	wantPlain, err := eng.Run(context.Background(), ds, skybench.Query{})
	if err != nil {
		t.Fatal(err)
	}
	wantPrefs, err := eng.Run(context.Background(), ds, skybench.Query{Prefs: prefs})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const queriesEach = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < queriesEach; i++ {
				q := skybench.Query{Threads: 1 + (g+i)%4}
				want := wantPlain.Indices
				switch (g + i) % 3 {
				case 1:
					q.Algorithm = skybench.QFlow
				case 2:
					q.Prefs = prefs
					want = wantPrefs.Indices
				}
				res, err := eng.Run(ctx, ds, q)
				if err != nil {
					errs <- err
					return
				}
				if !sameIndexSet(res.Indices, want) {
					t.Errorf("goroutine %d query %d: got %d skyline points, want %d",
						g, i, len(res.Indices), len(want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEngineSplitsPool holds run A open in its Progressive callback while
// run B starts on the same Engine of four threads: A, alone when it
// started, leased all four; B, one of two runs in flight, leases half.
// Both answer what a solo run answers, and a later solo run has the whole
// pool again.
func TestEngineSplitsPool(t *testing.T) {
	data := contextTestData(t, 20000, 5)
	ds, err := skybench.NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	eng := skybench.NewEngine(4)
	defer eng.Close()
	ctx := context.Background()
	solo, err := eng.Run(ctx, ds, skybench.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if solo.Stats.Threads != 4 {
		t.Fatalf("solo run leased %d threads, want 4", solo.Stats.Threads)
	}

	var b skybench.Result
	var bErr error
	started := false
	a, err := eng.Run(ctx, ds, skybench.Query{Progressive: func([]int) {
		if !started {
			started = true
			b, bErr = eng.Run(ctx, ds, skybench.Query{})
		}
	}})
	if err != nil || bErr != nil {
		t.Fatalf("run A: %v; run B: %v", err, bErr)
	}
	if !started {
		t.Fatal("run A never called Progressive")
	}
	if a.Stats.Threads != 4 || b.Stats.Threads != 2 {
		t.Errorf("run A leased %d threads and run B %d, want 4 and 2", a.Stats.Threads, b.Stats.Threads)
	}
	for name, r := range map[string]skybench.Result{"A": a, "B": b} {
		if !sameIndexSet(r.Indices, solo.Indices) {
			t.Errorf("run %s selects %d points, the solo run %d", name, len(r.Indices), len(solo.Indices))
		}
	}

	again, err := eng.Run(ctx, ds, skybench.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.Threads != 4 {
		t.Errorf("solo run after the split leased %d threads, want 4", again.Stats.Threads)
	}
}

// TestEngineCanceledBeforeStart is the issue's acceptance bound: an
// already-dead context must come back with ctx.Err() in under 50ms on
// the n=100k d=8 workload, i.e. without touching the data at all.
func TestEngineCanceledBeforeStart(t *testing.T) {
	data := contextTestData(t, 100000, 8)
	ds, err := skybench.NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	eng := skybench.NewEngine(0)
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = eng.Run(ctx, ds, skybench.Query{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, skybench.ErrCanceled) {
		t.Fatalf("err = %v, want context.Canceled wrapped in skybench.ErrCanceled", err)
	}
	if elapsed > 50*time.Millisecond {
		t.Errorf("canceled Run took %v, want < 50ms", elapsed)
	}
}

// TestEngineCancelMidFlight cancels a query while its block loop is
// running and requires Run to return ctx.Err() well before the full
// computation would have finished. The bound is relative to a measured
// uncancelled run of the same query, so it holds under the race
// detector's uniform slowdown.
func TestEngineCancelMidFlight(t *testing.T) {
	data := contextTestData(t, 100000, 8)
	ds, err := skybench.NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	eng := skybench.NewEngine(2)
	defer eng.Close()
	q := skybench.Query{Algorithm: skybench.QFlow}

	full := time.Now()
	if _, err := eng.Run(context.Background(), ds, q); err != nil {
		t.Fatal(err)
	}
	fullDur := time.Since(full)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(fullDur / 20)
		cancel()
	}()
	start := time.Now()
	res, err := eng.Run(ctx, ds, q)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, skybench.ErrCanceled) {
		t.Fatalf("err = %v, want context.Canceled wrapped in skybench.ErrCanceled", err)
	}
	if len(res.Indices) != 0 {
		t.Errorf("canceled Run leaked %d indices", len(res.Indices))
	}
	if elapsed > fullDur/2+50*time.Millisecond {
		t.Errorf("canceled Run took %v; uncancelled takes %v — cancellation is not prompt", elapsed, fullDur)
	}
}

// TestEngineRunZeroAlloc guards the steady-state serving path: a warm
// Engine answering repeated queries with ReuseIndices set must not
// allocate, with and without a preference transform. Cost counters
// (dominance tests, prune/survivor counts, phase timers) accumulate on
// every run, so passing here proves tracing support is free when
// Query.Trace is off — a trace is materialized only on request.
func TestEngineRunZeroAlloc(t *testing.T) {
	data := contextTestData(t, 20000, 8)
	ds, err := skybench.NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	eng := skybench.NewEngine(4)
	defer eng.Close()
	ctx := context.Background()
	prefs := []skybench.Pref{
		skybench.Min, skybench.Max, skybench.Min, skybench.Ignore,
		skybench.Min, skybench.Min, skybench.Max, skybench.Min,
	}
	for _, tc := range []struct {
		name string
		q    skybench.Query
	}{
		{"hybrid", skybench.Query{ReuseIndices: true}},
		{"qflow", skybench.Query{Algorithm: skybench.QFlow, ReuseIndices: true}},
		{"hybrid-prefs", skybench.Query{Prefs: prefs, ReuseIndices: true}},
		{"qflow-prefs", skybench.Query{Algorithm: skybench.QFlow, Prefs: prefs, ReuseIndices: true}},
		{"hybrid-prefs-k3", skybench.Query{Prefs: prefs, SkybandK: 3, ReuseIndices: true}},
	} {
		if _, err := eng.Run(ctx, ds, tc.q); err != nil { // warm scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := eng.Run(ctx, ds, tc.q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Engine.Run allocates %.1f per call, want 0", tc.name, allocs)
		}

		// The same query untraced carries no trace; traced it carries
		// one (that path may allocate — it is not under the guard).
		res, err := eng.Run(ctx, ds, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace != nil {
			t.Errorf("%s: untraced Run returned a trace", tc.name)
		}
		tq := tc.q
		tq.Trace = true
		res, err = eng.Run(ctx, ds, tq)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil {
			t.Fatalf("%s: traced Run returned no trace", tc.name)
		}
		if res.Trace.DominanceTests != res.Stats.DominanceTests || res.Trace.Output != len(res.Indices) {
			t.Errorf("%s: trace disagrees with result: %+v vs %d tests, %d points",
				tc.name, res.Trace, res.Stats.DominanceTests, len(res.Indices))
		}
	}
}

// TestEngineColdPrefsRunAllocBound guards the memory side of reading
// preferences through a view: the first subspace query on a fresh Engine
// — the run that sizes every scratch array — must allocate less than one
// staged copy of the kept columns would take. What a Hybrid run may hold
// that is sized to the input is the pre-filter's candidate list (a row
// index and a norm per row, 16 bytes); its row store holds the loaded
// rows of the candidates alone, a few percent of the input here. A
// staged copy, a per-row norm array or a per-row bitmap on top of them
// would break the bound.
func TestEngineColdPrefsRunAllocBound(t *testing.T) {
	const n, d, kept = 200000, 8, 4
	m := dataset.Generate(dataset.Correlated, n, d, 5)
	ds, err := skybench.DatasetFromFlat(m.Flat(), n, d)
	if err != nil {
		t.Fatal(err)
	}
	prefs := make([]skybench.Pref, d)
	for j := kept; j < d; j++ {
		prefs[j] = skybench.Ignore
	}
	eng := skybench.NewEngine(2)
	defer eng.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := eng.Run(context.Background(), ds, skybench.Query{Prefs: prefs, ReuseIndices: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PrefilterPruned < n/2 {
		t.Fatalf("pre-filter pruned %d of %d correlated rows; the bound assumes it prunes most", res.Stats.PrefilterPruned, n)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n*kept*8); got >= limit {
		t.Errorf("cold subspace query allocated %d bytes, want < %d (one staged copy of the %d kept columns)", got, limit, kept)
	}
}

// TestEngineErrors exercises the validation surface.
func TestEngineErrors(t *testing.T) {
	eng := skybench.NewEngine(2)
	ctx := context.Background()
	data := contextTestData(t, 50, 3)
	ds, err := skybench.NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ctx, nil, skybench.Query{}); !errors.Is(err, skybench.ErrBadDataset) {
		t.Errorf("nil dataset: err = %v, want ErrBadDataset", err)
	}
	if _, err := eng.Run(ctx, ds, skybench.Query{Prefs: []skybench.Pref{skybench.Min}}); !errors.Is(err, skybench.ErrBadQuery) {
		t.Errorf("mismatched preference length: err = %v, want ErrBadQuery", err)
	}
	allIgnore := []skybench.Pref{skybench.Ignore, skybench.Ignore, skybench.Ignore}
	if _, err := eng.Run(ctx, ds, skybench.Query{Prefs: allIgnore}); !errors.Is(err, skybench.ErrBadQuery) {
		t.Errorf("all-Ignore query: err = %v, want ErrBadQuery", err)
	}
	bad := []skybench.Pref{skybench.Min, skybench.Pref(42), skybench.Min}
	if _, err := eng.Run(ctx, ds, skybench.Query{Prefs: bad}); !errors.Is(err, skybench.ErrBadQuery) {
		t.Errorf("invalid preference value: err = %v, want ErrBadQuery", err)
	}
	empty, err := skybench.NewDataset(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := eng.Run(ctx, empty, skybench.Query{}); err != nil || len(res.Indices) != 0 {
		t.Errorf("empty dataset: res=%v err=%v, want empty success", res.Indices, err)
	}
	// A serving loop that always passes its schema's Prefs must not
	// break on an empty input: the empty dataset wins over validation.
	withPrefs := skybench.Query{Prefs: []skybench.Pref{skybench.Min, skybench.Max}}
	if res, err := eng.Run(ctx, empty, withPrefs); err != nil || len(res.Indices) != 0 {
		t.Errorf("empty dataset with prefs: res=%v err=%v, want empty success", res.Indices, err)
	}
	if _, err := eng.Run(ctx, ds, skybench.Query{Algorithm: skybench.Algorithm(99)}); !errors.Is(err, skybench.ErrUnknownAlgorithm) {
		t.Errorf("unknown algorithm: err = %v, want ErrUnknownAlgorithm", err)
	}
	eng.Close()
	if _, err := eng.Run(ctx, ds, skybench.Query{}); !errors.Is(err, skybench.ErrClosed) {
		t.Errorf("Run after Close: err = %v, want ErrClosed", err)
	}
}

// TestEngineExplicitMinPrefs checks that an all-Min preference vector is
// recognized as the identity transform (same result, no projection).
func TestEngineExplicitMinPrefs(t *testing.T) {
	data := contextTestData(t, 3000, 4)
	ds, err := skybench.NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	eng := skybench.NewEngine(2)
	defer eng.Close()
	ctx := context.Background()
	want, err := eng.Run(ctx, ds, skybench.Query{})
	if err != nil {
		t.Fatal(err)
	}
	allMin := []skybench.Pref{skybench.Min, skybench.Min, skybench.Min, skybench.Min}
	got, err := eng.Run(ctx, ds, skybench.Query{Prefs: allMin})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIndexSet(got.Indices, want.Indices) {
		t.Error("explicit all-Min prefs disagree with default query")
	}
}

// BenchmarkEngineRunReuse measures the steady-state serving path
// (ReuseIndices, warm Engine) and enforces its zero-allocation guarantee
// with an AllocsPerRun guard before timing.
func BenchmarkEngineRunReuse(b *testing.B) {
	data := contextTestData(b, 100000, 8)
	ds, err := skybench.NewDataset(data)
	if err != nil {
		b.Fatal(err)
	}
	eng := skybench.NewEngine(0)
	defer eng.Close()
	ctx := context.Background()
	q := skybench.Query{ReuseIndices: true}
	if _, err := eng.Run(ctx, ds, q); err != nil { // warm scratch
		b.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(3, func() {
		if _, err := eng.Run(ctx, ds, q); err != nil {
			b.Fatal(err)
		}
	}); allocs != 0 {
		b.Fatalf("steady-state Engine.Run allocates %.1f per call, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(ctx, ds, q); err != nil {
			b.Fatal(err)
		}
	}
}

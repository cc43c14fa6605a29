package skybench_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"skybench"
	"skybench/internal/dataset"
	"skybench/stream"
)

// storeTestData builds a deterministic synthetic dataset.
func storeTestData(t testing.TB, dist string, n, d int, seed int64) [][]float64 {
	t.Helper()
	dd, err := dataset.ParseDistribution(dist)
	if err != nil {
		t.Fatal(err)
	}
	return genRows(dd, n, d, seed)
}

// bandMap keys a band result by row index for order-insensitive
// comparison of membership and counts.
func bandMap(idx []int, counts []int32) map[int]int32 {
	m := make(map[int]int32, len(idx))
	for p, i := range idx {
		if counts != nil {
			m[i] = counts[p]
		} else {
			m[i] = 0
		}
	}
	return m
}

// sharesStorage reports whether two result slices are one backing array
// seen twice — how a cache hit proves it recomputed nothing.
func sharesStorage[T any](a, b []T) bool {
	return len(a) == len(b) && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// TestStoreShardedMatchesUnsharded: a collection attached with the
// deprecated Shards option answers every query exactly as Engine.Run
// does over its rows — the same indices in the same order, the same
// counts — for every distribution × preference vector × k × shard
// count. Progressive delivery works on it, and an Auto query right after
// the explicit Hybrid one is a cache hit on the same entry.
func TestStoreShardedMatchesUnsharded(t *testing.T) {
	const n, d = 2500, 5
	st := skybench.NewStore(4)
	defer st.Close()
	ctx := context.Background()

	prefsCases := map[string][]skybench.Pref{
		"all-min": nil,
		"mixed":   {skybench.Min, skybench.Max, skybench.Min, skybench.Max, skybench.Min},
		"subspace": {skybench.Min, skybench.Ignore, skybench.Max,
			skybench.Ignore, skybench.Min},
	}

	for _, dist := range []string{"correlated", "independent", "anticorrelated"} {
		rows := storeTestData(t, dist, n, d, 7)
		ds, err := skybench.NewDataset(rows)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 4, 7} {
			col, err := st.Attach(fmt.Sprintf("%s-%d", dist, shards), ds,
				skybench.CollectionOptions{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for name, prefs := range prefsCases {
				for _, k := range []int{1, 2, 4} {
					q := skybench.Query{Prefs: prefs, SkybandK: k}
					want, err := st.Engine().Run(ctx, ds, q)
					if err != nil {
						t.Fatal(err)
					}
					got, err := col.Run(ctx, q)
					if err != nil {
						t.Fatalf("%s/%s shards=%d k=%d: %v", dist, name, shards, k, err)
					}
					if !slices.Equal(got.Indices, want.Indices) || !slices.Equal(got.Counts, want.Counts) {
						t.Fatalf("%s/%s shards=%d k=%d: the collection answered %d rows %v…, Engine.Run %d rows %v…",
							dist, name, shards, k, got.Len(), got.Indices[:min(5, got.Len())], len(want.Indices), want.Indices[:min(5, len(want.Indices))])
					}
					if got.Stats.InputSize != n {
						t.Fatalf("%s/%s shards=%d k=%d: InputSize %d, want %d", dist, name, shards, k, got.Stats.InputSize, n)
					}
					q.Algorithm = skybench.Auto
					if auto, err := col.Run(ctx, q); err != nil || !auto.CacheHit || !sharesStorage(auto.Indices, got.Indices) {
						t.Fatalf("%s/%s shards=%d k=%d: Auto after Hybrid is no hit on its entry (%v)", dist, name, shards, k, err)
					}
				}
			}
			var streamed []int
			prog, err := col.Run(ctx, skybench.Query{SkybandK: 2, Progressive: func(b []int) { streamed = append(streamed, b...) }})
			if err != nil {
				t.Fatalf("%s shards=%d: progressive: %v", dist, shards, err)
			}
			if !slices.Equal(sortedInts(streamed), sortedInts(prog.Indices)) {
				t.Fatalf("%s shards=%d: progressive batches deliver %d rows, the result has %d", dist, shards, len(streamed), prog.Len())
			}
		}
	}
}

// TestStoreShardedGolden pins collection results to the committed golden
// files: skylines and k-skybands of a collection attached with the
// deprecated Shards: 4 must reproduce the brute-force oracle's
// membership and counts index-for-index.
func TestStoreShardedGolden(t *testing.T) {
	st := skybench.NewStore(2)
	defer st.Close()
	ctx := context.Background()
	for _, c := range goldenCases {
		g := loadGolden(t, c.name)
		ds, err := skybench.NewDataset(g.Rows)
		if err != nil {
			t.Fatal(err)
		}
		col, err := st.Attach(c.name, ds, skybench.CollectionOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err := col.Run(ctx, skybench.Query{})
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedInts(res.Indices); !slices.Equal(got, g.Skyline) {
			t.Fatalf("%s: skyline %v, golden %v", c.name, got, g.Skyline)
		}
		for _, k := range goldenKs {
			want := g.Skyband[fmt.Sprint(k)]
			res, err := col.Run(ctx, skybench.Query{SkybandK: k})
			if err != nil {
				t.Fatal(err)
			}
			gm, wm := bandMap(res.Indices, res.Counts), bandMap(want.Indices, want.Counts)
			if len(gm) != len(wm) {
				t.Fatalf("%s k=%d: band size %d, golden %d", c.name, k, len(gm), len(wm))
			}
			for i, cnt := range wm {
				if gm[i] != cnt {
					t.Fatalf("%s k=%d: row %d count %d, golden %d", c.name, k, i, gm[i], cnt)
				}
			}
		}
	}
}

// TestStoreCacheHitZeroAlloc is the acceptance bound on the cache: a
// repeated identical untraced query on an unchanged collection must be
// a hit that performs no engine work — marked CacheHit, the one shared
// handle on every hit, the miss's rows, no allocations at all. This also pins the tracing design's overhead
// contract: with Query.Trace off (the default here), the cost counters
// and cache-hit path stay allocation-free.
func TestStoreCacheHitZeroAlloc(t *testing.T) {
	rows := storeTestData(t, "independent", 5000, 6, 3)
	ds, err := skybench.NewDataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	st := skybench.NewStore(4)
	defer st.Close()
	col, err := st.Attach("hot", ds, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := skybench.Query{SkybandK: 2}
	first, err := col.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	base := col.CacheStats()

	var got *skybench.QueryResult
	allocs := testing.AllocsPerRun(100, func() {
		r, err := col.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got = r
	})
	if allocs != 0 {
		t.Errorf("cache hit allocates %.1f per call, want 0", allocs)
	}
	if first.CacheHit || !got.CacheHit {
		t.Errorf("CacheHit: miss %v, hit %v", first.CacheHit, got.CacheHit)
	}
	if again, _ := col.Run(ctx, q); again != got {
		t.Error("two cache hits returned different handles")
	}
	if !sharesStorage(got.Indices, first.Indices) || !sharesStorage(got.Counts, first.Counts) {
		t.Error("cache hit does not share the miss's rows — engine work was redone")
	}
	stats := col.CacheStats()
	if stats.Hits <= base.Hits {
		t.Errorf("hits did not advance: %+v -> %+v", base, stats)
	}
	if stats.Misses != base.Misses {
		t.Errorf("repeated identical query counted a miss: %+v -> %+v", base, stats)
	}
	if got.Trace != nil {
		t.Error("untraced cache hit carries a trace")
	}

	// A traced repeat of the same query is still a hit (Trace is a
	// delivery option, not part of the fingerprint) and comes back with
	// a minimal cache-hit trace on a fresh handle, leaving the cached
	// entry trace-free for the untraced fast path.
	tq := q
	tq.Trace = true
	tr1, err := col.Run(ctx, tq)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Trace == nil || !tr1.Trace.CacheHit {
		t.Fatalf("traced repeat: trace = %+v, want a cache-hit trace", tr1.Trace)
	}
	if tr1 == got || !tr1.CacheHit {
		t.Error("traced cache hit returned the shared cached handle — its trace would leak to untraced callers")
	}
	if hs := col.CacheStats(); hs.Misses != base.Misses {
		t.Errorf("traced repeat counted a miss: %+v -> %+v", base, hs)
	}
	after, err := col.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if after != got || after.Trace != nil {
		t.Error("untraced query after a traced hit no longer gets the clean cached handle")
	}

	// An equivalent canonical spelling (k=0 vs k=1, explicit all-Min
	// prefs vs empty) shares the cache entry.
	r0, err := col.Run(ctx, skybench.Query{SkybandK: 1})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := col.Run(ctx, skybench.Query{
		Prefs: []skybench.Pref{skybench.Min, skybench.Min, skybench.Min,
			skybench.Min, skybench.Min, skybench.Min}})
	if err != nil {
		t.Fatal(err)
	}
	if r0.CacheHit || !r1.CacheHit || !sharesStorage(r0.Indices, r1.Indices) {
		t.Error("canonically equivalent queries did not share a cache entry")
	}

	// A wrong-length all-Min preference vector is invalid and must stay
	// invalid with a warm cache — it must not collapse into the valid
	// empty-prefs entry.
	badPrefs := skybench.Query{Prefs: []skybench.Pref{skybench.Min, skybench.Min}}
	if _, err := col.Run(ctx, badPrefs); !errors.Is(err, skybench.ErrBadQuery) {
		t.Errorf("wrong-length all-Min prefs on a warm cache: err = %v, want ErrBadQuery", err)
	}
}

// TestStoreCacheEvictsInInsertionOrder: a full cache gives up its
// oldest entry, so which shapes hit depends on the query sequence alone.
// With capacity c and c+1 distinct shapes the last c all hit and the
// first is a miss again — on every run, where evicting by map iteration
// order made it a different shape each time.
func TestStoreCacheEvictsInInsertionOrder(t *testing.T) {
	ds, err := skybench.NewDataset(storeTestData(t, "independent", 300, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	st := skybench.NewStore(2)
	defer st.Close()
	const c = 4
	ctx := context.Background()
	hit := func(col *skybench.Collection, k int) bool {
		res, err := col.Run(ctx, skybench.Query{SkybandK: k})
		if err != nil {
			t.Fatal(err)
		}
		return res.CacheHit
	}
	for run := 0; run < 20; run++ {
		col, err := st.Attach(fmt.Sprint("fifo", run), ds, skybench.CollectionOptions{CacheCapacity: c})
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= c+1; k++ {
			if hit(col, k) {
				t.Fatalf("run %d: first query of shape k=%d hit", run, k)
			}
		}
		for k := 2; k <= c+1; k++ {
			if !hit(col, k) {
				t.Fatalf("run %d: shape k=%d, one of the last %d stored, was evicted", run, k, c)
			}
		}
		if hit(col, 1) {
			t.Fatalf("run %d: the oldest shape survived %d newer ones in a cache of %d", run, c, c)
		}
		if n := col.CacheStats().Entries; n != c {
			t.Fatalf("run %d: %d entries, want %d", run, n, c)
		}
	}
}

// TestStoreStreamCacheInvalidation drives a stream-backed collection
// through inserts and deletes and checks that every membership change
// invalidates cached results, while unchanged epochs keep serving the
// same handle — and that every answer matches a fresh Engine run over
// the live set.
func TestStoreStreamCacheInvalidation(t *testing.T) {
	ix, err := stream.New(3, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	rng := rand.New(rand.NewSource(11))
	var ids []stream.ID
	for i := 0; i < 300; i++ {
		id, err := ix.Insert([]float64{rng.Float64(), rng.Float64(), rng.Float64()})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	st := skybench.NewStore(2)
	defer st.Close()
	col, err := st.AttachStream("live", ix, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := skybench.Query{SkybandK: 2}

	oracle := func() map[string]int32 {
		vals, _, _ := ix.LiveSnapshot()
		n := len(vals) / 3
		ds, err := skybench.DatasetFromFlat(vals, n, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Engine().Run(ctx, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[string]int32, len(res.Indices))
		for p, i := range res.Indices {
			m[fmt.Sprint(ds.Row(i))] = res.Counts[p]
		}
		return m
	}
	check := func(r *skybench.QueryResult) {
		t.Helper()
		want := bandByCoords(t, r)
		w := oracle()
		if len(want) != len(w) {
			t.Fatalf("stream query: %d band points, oracle %d", len(want), len(w))
		}
		for key, c := range w {
			if want[key] != c {
				t.Fatalf("stream query: point %s count %d, oracle %d", key, want[key], c)
			}
		}
	}

	r1, err := col.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	check(r1)
	r2, err := col.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit || !sharesStorage(r2.Indices, r1.Indices) {
		t.Error("unchanged stream collection recomputed instead of hitting the cache")
	}

	// A dominated insert changes no skyline membership but does change
	// the live set — the cache must still invalidate (a k=2 band can
	// change, and so can other cached fingerprints).
	if _, err := ix.Insert([]float64{0.99, 0.99, 0.99}); err != nil {
		t.Fatal(err)
	}
	r3, err := col.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHit {
		t.Error("insert did not invalidate the cached result")
	}
	if r3.Epoch == r1.Epoch {
		t.Error("epoch did not advance across an insert")
	}
	check(r3)

	for _, id := range ids[:40] {
		if !ix.Delete(id) {
			t.Fatalf("delete of live id %d failed", id)
		}
	}
	r4, err := col.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if r4.CacheHit {
		t.Error("deletes did not invalidate the cached result")
	}
	check(r4)

	// Result positions resolve to stable stream IDs.
	liveVals, liveIDs, _ := ix.LiveSnapshot()
	live := make(map[uint64][]float64, len(liveIDs))
	for i, id := range liveIDs {
		live[id] = liveVals[i*ix.D() : (i+1)*ix.D()]
	}
	for p := 0; p < r4.Len(); p++ {
		id, ok := r4.ID(p)
		if !ok {
			t.Fatal("stream-backed result has no IDs")
		}
		vals, ok := live[id]
		if !ok {
			t.Fatalf("result ID %d is not live", id)
		}
		if fmt.Sprint(vals) != fmt.Sprint(r4.Row(p)) {
			t.Fatalf("result ID %d values %v, row %v", id, vals, r4.Row(p))
		}
	}
}

// bandByCoords keys a QueryResult's band by coordinate string — stream
// row order and dataset row order differ, so comparisons go by value.
func bandByCoords(t *testing.T, r *skybench.QueryResult) map[string]int32 {
	t.Helper()
	m := make(map[string]int32, r.Len())
	for p := 0; p < r.Len(); p++ {
		var c int32
		if r.Counts != nil {
			c = r.Counts[p]
		}
		m[fmt.Sprint(r.Row(p))] = c
	}
	return m
}

// TestStoreErrors exercises the typed sentinel errors across the Store
// surface.
func TestStoreErrors(t *testing.T) {
	rows := storeTestData(t, "independent", 100, 3, 5)
	ds, err := skybench.NewDataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	st := skybench.NewStore(2)
	ctx := context.Background()

	if _, err := st.Attach("a", nil, skybench.CollectionOptions{}); !errors.Is(err, skybench.ErrBadDataset) {
		t.Errorf("nil dataset: err = %v, want ErrBadDataset", err)
	}
	if _, err := st.AttachStream("a", nil, skybench.CollectionOptions{}); !errors.Is(err, skybench.ErrBadDataset) {
		t.Errorf("nil source: err = %v, want ErrBadDataset", err)
	}
	col, err := st.Attach("a", ds, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Attach("a", ds, skybench.CollectionOptions{}); !errors.Is(err, skybench.ErrDuplicateCollection) {
		t.Errorf("duplicate attach: err = %v, want ErrDuplicateCollection", err)
	}
	if _, err := st.Collection("missing"); !errors.Is(err, skybench.ErrUnknownCollection) {
		t.Errorf("unknown lookup: err = %v, want ErrUnknownCollection", err)
	}
	if err := st.Drop("missing"); !errors.Is(err, skybench.ErrUnknownCollection) {
		t.Errorf("unknown drop: err = %v, want ErrUnknownCollection", err)
	}
	if got, err := st.Collection("a"); err != nil || got != col {
		t.Errorf("lookup = (%v, %v), want the attached handle", got, err)
	}
	if names := st.Names(); !slices.Equal(names, []string{"a"}) {
		t.Errorf("Names() = %v, want [a]", names)
	}

	// Bad queries surface the engine's typed errors.
	if _, err := col.Run(ctx, skybench.Query{SkybandK: -3}); !errors.Is(err, skybench.ErrBadQuery) {
		t.Errorf("negative k: err = %v, want ErrBadQuery", err)
	}
	if _, err := col.Run(ctx, skybench.Query{Algorithm: skybench.Algorithm(77)}); !errors.Is(err, skybench.ErrUnknownAlgorithm) {
		t.Errorf("unknown algorithm: err = %v, want ErrUnknownAlgorithm", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := col.Run(canceled, skybench.Query{}); !errors.Is(err, skybench.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled query: err = %v, want ErrCanceled wrapping context.Canceled", err)
	}

	if err := st.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := col.Run(ctx, skybench.Query{}); !errors.Is(err, skybench.ErrClosed) {
		t.Errorf("dropped collection query: err = %v, want ErrClosed", err)
	}
	st.Close()
	if _, err := st.Attach("b", ds, skybench.CollectionOptions{}); !errors.Is(err, skybench.ErrClosed) {
		t.Errorf("attach after Close: err = %v, want ErrClosed", err)
	}
	if _, err := st.Collection("a"); !errors.Is(err, skybench.ErrClosed) {
		t.Errorf("lookup after Close: err = %v, want ErrClosed", err)
	}
}

// TestCollectionConcurrentRun: a repeat is the cached answer, and
// several queries in flight at once on one collection each get theirs.
func TestCollectionConcurrentRun(t *testing.T) {
	rows := storeTestData(t, "anticorrelated", 2000, 4, 9)
	ds, err := skybench.NewDataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	st := skybench.NewStore(2)
	defer st.Close()
	col, err := st.Attach("async", ds, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	want, err := col.Run(ctx, skybench.Query{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := col.Run(ctx, skybench.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.CacheHit || !sharesStorage(got.Indices, want.Indices) {
		t.Error("repeat did not serve the cached answer the first Run produced")
	}

	queries := []skybench.Query{{}, {SkybandK: 2}, {Algorithm: skybench.QFlow}}
	results := make([]*skybench.QueryResult, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = col.Run(ctx, q)
		}()
	}
	wg.Wait()
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("concurrent query %d: %v", i, errs[i])
		}
		if results[i].Len() == 0 {
			t.Fatalf("concurrent query %d: empty result", i)
		}
	}
}

// TestStoreConcurrent is the race-detector workload named in CI: many
// goroutines querying a Store hosting a static collection and a
// stream-backed collection, while a writer mutates the stream — cache
// hits, invalidations, snapshot materialization, and concurrent engine
// runs all interleaving.
func TestStoreConcurrent(t *testing.T) {
	rows := storeTestData(t, "independent", 4000, 4, 21)
	ds, err := skybench.NewDataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := stream.New(4, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var mu sync.Mutex
	var live []stream.ID
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 1000; i++ {
		id, err := ix.Insert([]float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()})
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}

	st := skybench.NewStore(4)
	defer st.Close()
	static, err := st.Attach("static", ds, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := st.AttachStream("live", ix, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: continuous inserts and deletes on the stream collection,
	// running until the readers are done.
	go func() {
		defer close(writerDone)
		wrng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if wrng.Float64() < 0.4 {
				mu.Lock()
				if len(live) > 0 {
					p := wrng.Intn(len(live))
					id := live[p]
					live[p] = live[len(live)-1]
					live = live[:len(live)-1]
					mu.Unlock()
					ix.Delete(id)
					continue
				}
				mu.Unlock()
			}
			id, err := ix.Insert([]float64{wrng.Float64(), wrng.Float64(), wrng.Float64(), wrng.Float64()})
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			live = append(live, id)
			mu.Unlock()
		}
	}()

	// On the stream collection the default and QFlow shapes are read from
	// the index's maintained band; k = 2 (wider than the index's) and the
	// Max/Ignore preferences are materialized and run. Keep both kinds in
	// the mix: the two paths must interleave with the writer.
	queries := []skybench.Query{{}, {SkybandK: 2}, {Algorithm: skybench.QFlow},
		{Prefs: []skybench.Pref{skybench.Min, skybench.Max, skybench.Min, skybench.Ignore}}}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				q := queries[(g+i)%len(queries)]
				if res, err := static.Run(ctx, q); err != nil || res.Len() == 0 {
					t.Errorf("static query: (%v, %v)", res, err)
					return
				}
				if res, err := streamed.Run(ctx, q); err != nil {
					t.Errorf("stream query: %v", err)
					return
				} else if res.Len() == 0 {
					t.Error("stream query: empty result over a non-empty live set")
					return
				}
			}
		}(g)
	}
	wg.Wait() // readers finish first; then stop the writer
	close(stop)
	<-writerDone

	if hits := static.CacheStats().Hits; hits == 0 {
		t.Error("concurrent identical static queries never hit the cache")
	}
}

// TestStoreLegacyEquivalence pins the layering contract: Engine.Run and
// a cache-disabled collection answer identically.
func TestStoreLegacyEquivalence(t *testing.T) {
	rows := storeTestData(t, "correlated", 1500, 4, 17)
	ds, err := skybench.NewDataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	eng := skybench.NewEngine(2)
	defer eng.Close()
	st := skybench.NewStoreWithEngine(eng)
	defer st.Close()
	col, err := st.Attach("plain", ds, skybench.CollectionOptions{CacheCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range []skybench.Query{{}, {SkybandK: 3}, {Algorithm: skybench.BSkyTree}} {
		want, err := eng.Run(ctx, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := col.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Indices, want.Indices) || !slices.Equal(got.Counts, want.Counts) {
			t.Fatalf("query %+v: collection diverges from Engine.Run", q)
		}
		if got.Epoch != 0 {
			t.Fatalf("static collection epoch = %d, want 0", got.Epoch)
		}
	}
	// NewStoreWithEngine leaves the engine to its owner.
	st.Close()
	if _, err := eng.Run(ctx, ds, skybench.Query{}); err != nil {
		t.Fatalf("store close killed the caller-owned engine: %v", err)
	}
}

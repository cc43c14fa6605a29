package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"skybench"
	"skybench/internal/dataset"
	"skybench/serve"
	"skybench/stream"
)

// testEngine merges every test coordinator's candidate unions.
var testEngine = skybench.NewEngine(2)

// startWorker boots one worker skyserved over its own Store, attaches
// the given dataset slice under name "c", and returns its base URL.
func startWorker(t *testing.T, flat []float64, n, d int) string {
	t.Helper()
	ds, err := skybench.DatasetFromFlat(flat, n, d)
	if err != nil {
		t.Fatalf("DatasetFromFlat: %v", err)
	}
	st := skybench.NewStore(2)
	if _, err := st.Attach("c", ds, skybench.CollectionOptions{}); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	srv := serve.New(st, serve.Options{})
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs.URL
}

// startCluster shards flat row-wise across nw workers and returns a
// Coordinator over them (probing disabled for determinism).
func startCluster(t *testing.T, flat []float64, n, d, nw int, policy Policy) *Coordinator {
	t.Helper()
	specs := make([]WorkerSpec, 0, nw)
	for _, r := range split(n, nw) {
		addr := startWorker(t, flat[r.Lo*d:r.Hi*d], r.Hi-r.Lo, d)
		specs = append(specs, WorkerSpec{Addr: addr, Lo: r.Lo, Hi: r.Hi})
	}
	co, err := New(Config{
		Collection:    "c",
		D:             d,
		Workers:       specs,
		Policy:        policy,
		ProbeInterval: -1,
		Engine:        testEngine,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(co.Close)
	return co
}

// reference runs the same query single-node and returns its result.
func reference(t *testing.T, flat []float64, n, d int, q skybench.Query) *skybench.QueryResult {
	t.Helper()
	ds, err := skybench.DatasetFromFlat(flat, n, d)
	if err != nil {
		t.Fatalf("DatasetFromFlat: %v", err)
	}
	st := skybench.NewStore(2)
	t.Cleanup(func() { st.Close() })
	col, err := st.Attach("ref", ds, skybench.CollectionOptions{})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	res, err := col.Run(context.Background(), q)
	if err != nil {
		t.Fatalf("reference Run: %v", err)
	}
	return res
}

// canonical returns an (indices, counts) copy sorted by ascending
// global index — the single-shard engine path reports algorithm order,
// so comparisons normalize both sides to the cluster's sorted order.
func canonical(r *skybench.QueryResult) ([]int, []int32) {
	idx := append([]int(nil), r.Indices...)
	var counts []int32
	if r.Counts != nil {
		counts = append([]int32(nil), r.Counts...)
	}
	sort.Sort(byIndex{idx, counts})
	return idx, counts
}

// byIndex sorts a result by ascending row index, counts (nil for a
// skyline) parallel.
type byIndex struct {
	idx    []int
	counts []int32
}

func (s byIndex) Len() int           { return len(s.idx) }
func (s byIndex) Less(a, b int) bool { return s.idx[a] < s.idx[b] }
func (s byIndex) Swap(a, b int) {
	s.idx[a], s.idx[b] = s.idx[b], s.idx[a]
	if s.counts != nil {
		s.counts[a], s.counts[b] = s.counts[b], s.counts[a]
	}
}

func sameResult(t *testing.T, got, want *skybench.QueryResult, label string) {
	t.Helper()
	gi, gc := canonical(got)
	wi, wc := canonical(want)
	if len(gi) != len(wi) {
		t.Fatalf("%s: %d indices, want %d", label, len(gi), len(wi))
	}
	for i := range gi {
		if gi[i] != wi[i] {
			t.Fatalf("%s: index[%d] = %d, want %d", label, i, gi[i], wi[i])
		}
	}
	if (gc == nil) != (wc == nil) {
		t.Fatalf("%s: counts presence mismatch (%v vs %v)", label, gc != nil, wc != nil)
	}
	for i := range gc {
		if gc[i] != wc[i] {
			t.Fatalf("%s: count[%d] = %d, want %d", label, i, gc[i], wc[i])
		}
	}
	if got.Epoch != want.Epoch {
		t.Fatalf("%s: epoch %d, want %d", label, got.Epoch, want.Epoch)
	}
}

// TestClusterMatchesSingleNode is the property test pinning the
// tentpole's soundness claim: cluster answers are bit-identical —
// indices, skyband counts, epochs — to single-node answers, across
// data distributions × preference vectors × worker counts × band
// widths.
func TestClusterMatchesSingleNode(t *testing.T) {
	const n, d = 360, 4
	prefCases := [][]skybench.Pref{
		nil,
		{skybench.Min, skybench.Max, skybench.Min, skybench.Max},
		{skybench.Max, skybench.Ignore, skybench.Min, skybench.Min},
	}
	for _, dist := range dataset.AllDistributions {
		m := dataset.Generate(dist, n, d, 42)
		flat := m.Flat()
		for _, nw := range []int{1, 2, 3} {
			co := startCluster(t, flat, n, d, nw, FailFast)
			for _, k := range []int{1, 2} {
				for pi, prefs := range prefCases {
					q := skybench.Query{SkybandK: k, Prefs: prefs, Trace: true}
					label := fmt.Sprintf("%v/w%d/k%d/p%d", dist, nw, k, pi)
					got, err := co.Run(context.Background(), q)
					if err != nil {
						t.Fatalf("%s: cluster Run: %v", label, err)
					}
					want := reference(t, flat, n, d, q)
					sameResult(t, got, want, label)
					if got.Partial {
						t.Fatalf("%s: result flagged partial with all workers up", label)
					}
					if got.Trace == nil || len(got.Trace.Workers) != nw {
						t.Fatalf("%s: trace has %d worker entries, want %d", label, len(got.Trace.Workers), nw)
					}
					for wi, wt := range got.Trace.Workers {
						if wt.Failed {
							t.Fatalf("%s: worker %d trace flagged failed: %s", label, wi, wt.Err)
						}
						if wt.InputSize != wt.Hi-wt.Lo {
							t.Fatalf("%s: worker %d input %d over range [%d,%d)", label, wi, wt.InputSize, wt.Lo, wt.Hi)
						}
					}
					// Row values come back over the wire: every result row
					// must match the source matrix at its global index.
					for p, gi := range got.Indices {
						row := got.Row(p)
						for j := 0; j < d; j++ {
							if row[j] != flat[gi*d+j] {
								t.Fatalf("%s: row %d value[%d] = %v, want %v", label, p, j, row[j], flat[gi*d+j])
							}
						}
					}
				}
			}
		}
	}
}

// TestClusterThroughStore runs the cluster through Store.AttachRemote —
// the Collection surface a skyserved coordinator actually serves — and
// checks results, caching, and placement stats.
func TestClusterThroughStore(t *testing.T) {
	const n, d = 240, 3
	m := dataset.Generate(dataset.Anticorrelated, n, d, 7)
	flat := m.Flat()
	co := startCluster(t, flat, n, d, 2, FailFast)

	st := skybench.NewStore(2)
	defer st.Close()
	col, err := st.AttachRemote("c", co, skybench.CollectionOptions{})
	if err != nil {
		t.Fatalf("AttachRemote: %v", err)
	}
	cs, err := col.Stats()
	if err != nil || cs.Placement == nil || cs.N != n || cs.D != d {
		t.Fatalf("Stats = %+v (%v), want a placement and N,D = %d,%d", cs, err, n, d)
	}
	q := skybench.Query{SkybandK: 2}
	got, err := col.Run(context.Background(), q)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := reference(t, flat, n, d, q)
	sameResult(t, got, want, "store")

	// Second run must be a cache hit: same epoch, no new worker queries.
	before := co.Placement()
	again, err := col.Run(context.Background(), skybench.Query{SkybandK: 2, Trace: true})
	if err != nil {
		t.Fatalf("cached Run: %v", err)
	}
	sameResult(t, again, want, "cached")
	if again.Trace == nil || !again.Trace.CacheHit {
		t.Fatal("second identical query should hit the result cache")
	}
	after := co.Placement()
	for i := range after.Workers {
		if after.Workers[i].Queries != before.Workers[i].Queries {
			t.Fatalf("cache hit still queried worker %d", i)
		}
	}

	// The same queries through a local and a 3-worker collection return
	// the same rows, counts, coordinates and IDs (a local run reports the
	// algorithm's order, so it is compared row by row).
	ds, err := skybench.DatasetFromFlat(flat, n, d)
	if err != nil {
		t.Fatalf("DatasetFromFlat: %v", err)
	}
	single, err := st.Attach("single", ds, skybench.CollectionOptions{})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	remote, err := st.AttachRemote("c3", startCluster(t, flat, n, d, 3, FailFast), skybench.CollectionOptions{})
	if err != nil {
		t.Fatalf("AttachRemote: %v", err)
	}
	for _, q := range []skybench.Query{
		{},
		{SkybandK: 2, Prefs: []skybench.Pref{skybench.Max, skybench.Min, skybench.Ignore}},
		{SkybandK: 4, Algorithm: skybench.QFlow},
	} {
		type row struct {
			count int32
			vals  string
			id    uint64
			hasID bool
		}
		var runs [2][]row
		var idxs [2][]int
		for c, col := range []*skybench.Collection{single, remote} {
			name := []string{"single", "remote"}[c]
			r, err := col.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("%+v on %s: %v", q, name, err)
			}
			order := make([]int, r.Len())
			for p := range order {
				order[p] = p
			}
			sort.Slice(order, func(a, b int) bool { return r.Indices[order[a]] < r.Indices[order[b]] })
			if c > 0 && !sort.IntsAreSorted(order) {
				t.Fatalf("%+v on %s: Indices not ascending", q, name)
			}
			for _, p := range order {
				rw := row{vals: fmt.Sprint(r.Row(p))}
				if r.Counts != nil {
					rw.count = r.Counts[p]
				}
				rw.id, rw.hasID = r.ID(p)
				runs[c] = append(runs[c], rw)
				idxs[c] = append(idxs[c], r.Indices[p])
			}
		}
		if !slices.Equal(idxs[1], idxs[0]) || !slices.Equal(runs[1], runs[0]) {
			t.Fatalf("%+v: the cluster answers\n%v %v\nthe local collection answers\n%v %v", q, idxs[1], runs[1], idxs[0], runs[0])
		}
	}

	stats, err := col.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.Placement == nil || len(stats.Placement.Workers) != 2 {
		t.Fatalf("Stats().Placement = %+v, want 2 workers", stats.Placement)
	}
	for i, w := range stats.Placement.Workers {
		if w.Queries == 0 {
			t.Fatalf("placement worker %d shows zero queries", i)
		}
		if !w.Healthy {
			t.Fatalf("placement worker %d unhealthy", i)
		}
	}
}

// TestEpochSkewRejected pins the merge-safety rule: workers answering
// at different membership epochs are rejected, not merged.
func TestEpochSkewRejected(t *testing.T) {
	const d = 2
	rows := [][][]float64{
		{{1, 9}, {2, 8}, {3, 7}},
		{{9, 1}, {8, 2}, {7, 3}, {6, 4}},
	}
	specs := make([]WorkerSpec, 0, 2)
	lo := 0
	for _, shardRows := range rows {
		ix, err := stream.New(d, stream.Config{})
		if err != nil {
			t.Fatalf("stream.New: %v", err)
		}
		// Each insert bumps the live epoch, so unequal insert counts
		// leave the two workers at different epochs (3 vs 4).
		if _, err := ix.InsertBatch(shardRows); err != nil {
			t.Fatalf("InsertBatch: %v", err)
		}
		st := skybench.NewStore(1)
		if _, err := st.AttachStream("c", ix, skybench.CollectionOptions{CloseOnDrop: true}); err != nil {
			t.Fatalf("AttachStream: %v", err)
		}
		srv := serve.New(st, serve.Options{})
		hs := httptest.NewServer(srv)
		t.Cleanup(func() {
			hs.Close()
			srv.Close()
		})
		specs = append(specs, WorkerSpec{Addr: hs.URL, Lo: lo, Hi: lo + len(shardRows)})
		lo += len(shardRows)
	}
	co, err := New(Config{Collection: "c", D: d, Workers: specs, ProbeInterval: -1, Engine: testEngine})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer co.Close()
	_, err = co.Run(context.Background(), skybench.Query{})
	if !errors.Is(err, skybench.ErrEpochSkew) {
		t.Fatalf("err = %v, want ErrEpochSkew", err)
	}
}

// TestPolicies pins the degraded-answer matrix: a dead worker fails the
// query under failfast, yields an exact-over-survivors Partial result
// under partial, and an all-dead cluster is ErrWorkerUnavailable under
// both.
func TestPolicies(t *testing.T) {
	const n, d = 120, 3
	m := dataset.Generate(dataset.Independent, n, d, 11)
	flat := m.Flat()
	ranges := split(n, 2)

	build := func(t *testing.T, policy Policy, kill ...int) *Coordinator {
		specs := make([]WorkerSpec, 0, 2)
		urls := make([]string, 0, 2)
		for _, r := range ranges {
			urls = append(urls, startWorker(t, flat[r.Lo*d:r.Hi*d], r.Hi-r.Lo, d))
		}
		for i, r := range ranges {
			specs = append(specs, WorkerSpec{Addr: urls[i], Lo: r.Lo, Hi: r.Hi})
		}
		for _, i := range kill {
			// Point the worker at a dead address: connection refused is
			// the transport failure a SIGKILLed worker presents.
			dead := httptest.NewServer(http.NotFoundHandler())
			dead.Close()
			specs[i].Addr = dead.URL
		}
		co, err := New(Config{
			Collection: "c", D: d, Workers: specs,
			Policy: policy, Retries: 1,
			ProbeInterval: -1, Engine: testEngine,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(co.Close)
		return co
	}

	t.Run("failfast", func(t *testing.T) {
		co := build(t, FailFast, 1)
		_, err := co.Run(context.Background(), skybench.Query{})
		if !errors.Is(err, skybench.ErrWorkerUnavailable) {
			t.Fatalf("err = %v, want ErrWorkerUnavailable", err)
		}
	})

	t.Run("partial", func(t *testing.T) {
		co := build(t, Partial, 1)
		res, err := co.Run(context.Background(), skybench.Query{Trace: true})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !res.Partial {
			t.Fatal("result not flagged Partial with a dead worker")
		}
		// The answer must be the exact band of the surviving rows — a
		// degraded answer is still never a wrong one.
		r0 := ranges[0]
		want := reference(t, flat[r0.Lo*d:r0.Hi*d], r0.Hi-r0.Lo, d, skybench.Query{})
		ri, _ := canonical(res)
		wi, _ := canonical(want)
		if len(ri) != len(wi) {
			t.Fatalf("partial result has %d indices, want %d (survivor band)", len(ri), len(wi))
		}
		for i := range ri {
			if ri[i] != wi[i] {
				t.Fatalf("partial index[%d] = %d, want %d", i, ri[i], wi[i])
			}
		}
		if res.Trace == nil || len(res.Trace.Workers) != 2 {
			t.Fatal("partial trace should list both workers")
		}
		if res.Trace.Workers[1].Failed == false || res.Trace.Workers[1].Err == "" {
			t.Fatalf("worker 1 trace should be flagged failed, got %+v", res.Trace.Workers[1])
		}
		if !res.Trace.Partial {
			t.Fatal("trace not flagged partial")
		}
		if co.Placement().Partials != 1 {
			t.Fatalf("Partials = %d, want 1", co.Placement().Partials)
		}
	})

	t.Run("all-dead", func(t *testing.T) {
		co := build(t, Partial, 0, 1)
		_, err := co.Run(context.Background(), skybench.Query{})
		if !errors.Is(err, skybench.ErrWorkerUnavailable) {
			t.Fatalf("err = %v, want ErrWorkerUnavailable even under partial policy", err)
		}
	})
}

// panicOn is a transport that panics on requests to one host and
// forwards the rest.
type panicOn struct{ host string }

func (p *panicOn) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == p.host {
		panic("transport bug")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestWorkerPanicContained: a panic on one worker's fan-out goroutine
// fails that query with ErrQueryPanic — under both policies, a bug here
// is not a worker being away — and leaves the process and the
// coordinator serving.
func TestWorkerPanicContained(t *testing.T) {
	const n, d = 60, 2
	flat := dataset.Generate(dataset.Independent, n, d, 3).Flat()
	for _, policy := range []Policy{FailFast, Partial} {
		var specs []WorkerSpec
		for _, r := range split(n, 2) {
			specs = append(specs, WorkerSpec{Addr: startWorker(t, flat[r.Lo*d:r.Hi*d], r.Hi-r.Lo, d), Lo: r.Lo, Hi: r.Hi})
		}
		tr := &panicOn{host: strings.TrimPrefix(specs[1].Addr, "http://")}
		co, err := New(Config{Collection: "c", D: d, Workers: specs, Policy: policy,
			ProbeInterval: -1, HTTPClient: &http.Client{Transport: tr}, Engine: testEngine})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(co.Close)
		if _, err := co.Run(context.Background(), skybench.Query{}); !errors.Is(err, skybench.ErrQueryPanic) {
			t.Fatalf("%s: err = %v, want ErrQueryPanic", policy, err)
		}
		if f := co.Placement().Workers[1].Failures; f != 1 {
			t.Fatalf("%s: panicking worker shows %d failures, want 1", policy, f)
		}
		tr.host = "" // the bug goes away: the same coordinator answers
		got, err := co.Run(context.Background(), skybench.Query{})
		if err != nil {
			t.Fatalf("%s: Run after the panic: %v", policy, err)
		}
		sameResult(t, got, reference(t, flat, n, d, skybench.Query{}), policy.String())
	}
}

// TestDeadlineForwarding pins the propagation fix: the budget a worker
// receives is the *remaining* budget minus the margin, never the
// caller's original grant — and an already-expired budget never burns a
// wire round trip.
func TestDeadlineForwarding(t *testing.T) {
	const n, d = 60, 2
	m := dataset.Generate(dataset.Independent, n, d, 3)
	flat := m.Flat()
	real := startWorker(t, flat, n, d)

	var mu sync.Mutex
	var hdrs []string
	hits := 0
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		if h := r.Header.Get(serve.DeadlineHeader); h != "" {
			hdrs = append(hdrs, h)
		}
		mu.Unlock()
		req, err := http.NewRequestWithContext(r.Context(), r.Method, real+r.URL.Path, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		// Forward the response headers: Content-Type is how the client
		// tells a result frame from JSON.
		for k, vs := range resp.Header {
			w.Header()[k] = vs
		}
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32*1024)
		for {
			nr, rerr := resp.Body.Read(buf)
			if nr > 0 {
				_, _ = w.Write(buf[:nr])
			}
			if rerr != nil {
				break
			}
		}
	}))
	defer proxy.Close()

	const margin = 20 * time.Millisecond
	co, err := New(Config{
		Collection: "c", D: d,
		Workers:       []WorkerSpec{{Addr: proxy.URL, Lo: 0, Hi: n}},
		Margin:        margin,
		ProbeInterval: -1,
		Engine:        testEngine,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer co.Close()

	const grant = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), grant)
	defer cancel()
	// Spend some of the budget before the fan-out, as a real handler
	// would parsing and queueing.
	time.Sleep(50 * time.Millisecond)
	if _, err := co.Run(ctx, skybench.Query{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	mu.Lock()
	recorded := append([]string(nil), hdrs...)
	mu.Unlock()
	if len(recorded) == 0 {
		t.Fatal("worker saw no deadline header")
	}
	ms, err := strconv.ParseInt(recorded[0], 10, 64)
	if err != nil {
		t.Fatalf("deadline header %q: %v", recorded[0], err)
	}
	max := (grant - margin - 40*time.Millisecond).Milliseconds()
	if ms <= 0 || ms > max {
		t.Fatalf("worker budget %dms; want in (0, %dms] — remaining minus margin, not the original %v", ms, max, grant)
	}

	// Already-expired budget: fail typed, zero wire traffic.
	mu.Lock()
	hitsBefore := hits
	mu.Unlock()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	_, err = co.Run(expired, skybench.Query{})
	if !errors.Is(err, skybench.ErrDeadlineExceeded) {
		t.Fatalf("expired err = %v, want ErrDeadlineExceeded", err)
	}
	mu.Lock()
	if hits != hitsBefore {
		t.Fatalf("expired query still reached the worker (%d new hits)", hits-hitsBefore)
	}
	mu.Unlock()
}

// TestDistribute round-trips a CSV through Distribute and checks the
// cluster over the shipped shards matches single-node exactly.
func TestDistribute(t *testing.T) {
	const n, d = 150, 3
	m := dataset.Generate(dataset.Correlated, n, d, 5)
	dir := t.TempDir()
	src := filepath.Join(dir, "src.csv")
	if err := dataset.WriteFile(src, m); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	urls := make([]string, 2)
	for i := range urls {
		st := skybench.NewStore(1)
		srv := serve.New(st, serve.Options{})
		hs := httptest.NewServer(srv)
		t.Cleanup(func() {
			hs.Close()
			srv.Close()
		})
		urls[i] = hs.URL
	}
	specs, gotN, gotD, err := Distribute(context.Background(), src, DistributeOptions{
		Collection: "c",
		Workers:    urls,
		ScratchDir: filepath.Join(dir, "scratch"),
	})
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	if gotN != n || gotD != d || len(specs) != 2 {
		t.Fatalf("Distribute = %d specs, n=%d d=%d", len(specs), gotN, gotD)
	}
	// Re-running without Replace hits the duplicate; with Replace it
	// succeeds idempotently.
	if _, _, _, err := Distribute(context.Background(), src, DistributeOptions{
		Collection: "c", Workers: urls, ScratchDir: filepath.Join(dir, "scratch"),
	}); !errors.Is(err, skybench.ErrDuplicateCollection) {
		t.Fatalf("re-distribute err = %v, want ErrDuplicateCollection", err)
	}
	if _, _, _, err := Distribute(context.Background(), src, DistributeOptions{
		Collection: "c", Workers: urls, ScratchDir: filepath.Join(dir, "scratch"), Replace: true,
	}); err != nil {
		t.Fatalf("re-distribute with Replace: %v", err)
	}

	co, err := New(Config{Collection: "c", D: d, Workers: specs, ProbeInterval: -1, Engine: testEngine})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer co.Close()
	q := skybench.Query{SkybandK: 2}
	got, err := co.Run(context.Background(), q)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The reference reads the same CSV back: the comparison includes any
	// CSV round-trip of the coordinates.
	rm, err := dataset.ReadFile(src)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	want := reference(t, rm.Flat(), n, d, q)
	sameResult(t, got, want, "distribute")
}

// TestConfigValidation pins placement validation: gaps, overlaps,
// empty ranges and a missing merge engine are construction-time errors.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{D: 2, Workers: []WorkerSpec{{Addr: "x", Lo: 0, Hi: 5}}},            // no name
		{Collection: "c", Workers: []WorkerSpec{{Addr: "x", Lo: 0, Hi: 5}}}, // no dims
		{Collection: "c", D: 2}, // no workers
		{Collection: "c", D: 2, Workers: []WorkerSpec{{Addr: "x", Lo: 1, Hi: 5}}},                            // gap at 0
		{Collection: "c", D: 2, Workers: []WorkerSpec{{Addr: "x", Lo: 0, Hi: 0}}},                            // empty range
		{Collection: "c", D: 2, Workers: []WorkerSpec{{Addr: "x", Lo: 0, Hi: 5}, {Addr: "y", Lo: 6, Hi: 8}}}, // gap
		{Collection: "c", D: 2, Workers: []WorkerSpec{{Addr: "x", Lo: 0, Hi: 5}, {Addr: "y", Lo: 4, Hi: 8}}}, // overlap
		{Collection: "c", D: 2, Workers: []WorkerSpec{{Lo: 0, Hi: 5}}},                                       // no addr
	}
	for i, cfg := range bad {
		cfg.ProbeInterval, cfg.Engine = -1, testEngine
		if _, err := New(cfg); !errors.Is(err, skybench.ErrBadQuery) {
			t.Fatalf("config %d: err = %v, want ErrBadQuery", i, err)
		}
	}
	valid := Config{Collection: "c", D: 2, ProbeInterval: -1,
		Workers: []WorkerSpec{{Addr: "x", Lo: 0, Hi: 5}, {Addr: "y", Lo: 5, Hi: 8}}}
	if _, err := New(valid); !errors.Is(err, skybench.ErrBadQuery) {
		t.Fatalf("config without an engine: err = %v, want ErrBadQuery", err)
	}
	valid.Engine = testEngine
	co, err := New(valid)
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	co.Close()
	if co.Len() != 8 || co.D() != 2 {
		t.Fatalf("Len,D = %d,%d want 8,2", co.Len(), co.D())
	}
}

// TestUnforwardableQueries pins the wire boundary: progressive delivery
// and ablation flags cannot cross it.
func TestUnforwardableQueries(t *testing.T) {
	co, err := New(Config{Collection: "c", D: 2, ProbeInterval: -1, Engine: testEngine,
		Workers: []WorkerSpec{{Addr: "http://127.0.0.1:1", Lo: 0, Hi: 5}}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer co.Close()
	if _, err := co.Run(context.Background(), skybench.Query{Ablation: skybench.Ablation{NoPrefilter: true}}); !errors.Is(err, skybench.ErrBadQuery) {
		t.Fatalf("ablation err = %v, want ErrBadQuery", err)
	}
	if _, err := co.Run(context.Background(), skybench.Query{Prefs: []skybench.Pref{skybench.Min}}); !errors.Is(err, skybench.ErrBadQuery) {
		t.Fatalf("pref-arity err = %v, want ErrBadQuery", err)
	}
}

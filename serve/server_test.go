// End-to-end tests: a real Store behind a real HTTP server, driven
// through the typed client — the full wire round trip, including the
// error taxonomy, delta subscriptions, backpressure disconnects, and
// graceful shutdown with durable recovery.
package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skybench"
	"skybench/serve"
	"skybench/serve/client"
	"skybench/serve/metrics"
	"skybench/stream"
)

// newTestServer stands up a serve.Server over a fresh Store behind
// httptest, returning the typed client pointed at it.
func newTestServer(t *testing.T, storeOpts skybench.StoreOptions, opts serve.Options) (*serve.Server, *client.Client) {
	t.Helper()
	st := skybench.NewStoreWithOptions(storeOpts)
	srv := serve.New(st, opts)
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	c := client.New(hs.URL)
	testURLs.Store(c, hs.URL)
	t.Cleanup(func() { testURLs.Delete(c) })
	return srv, c
}

// testURLs maps each newTestServer client to its server's base URL.
var testURLs sync.Map

// srvURL is the base URL of the server a newTestServer client talks to,
// for the raw-HTTP cases.
func srvURL(c *client.Client) string {
	u, _ := testURLs.Load(c)
	return u.(string)
}

// genCSV writes n pseudo-random d-dimensional rows as a headerless CSV
// and returns its path.
func genCSV(t *testing.T, n, d int, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%.6f", rng.Float64())
		}
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStaticQueryRoundTrip: a static CSV collection served over the
// wire must return exactly the result the in-process API computes.
func TestStaticQueryRoundTrip(t *testing.T) {
	srv, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{})
	path := genCSV(t, 500, 3, 1)
	col, err := srv.AttachStaticFile("hotels", path, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := col.Run(context.Background(), skybench.Query{SkybandK: 2})
	if err != nil {
		t.Fatal(err)
	}

	res, err := c.Query(context.Background(), "hotels", &serve.QueryRequest{SkybandK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want.Len() || len(res.Indices) != want.Len() {
		t.Fatalf("wire count = %d, in-process = %d", res.Count, want.Len())
	}
	wantSet := make(map[int]bool, want.Len())
	for _, idx := range want.Indices {
		wantSet[idx] = true
	}
	for i, idx := range res.Indices {
		if !wantSet[idx] {
			t.Fatalf("wire index %d not in in-process result", idx)
		}
		if len(res.Values[i]) != 3 {
			t.Fatalf("values[%d] has %d dims, want 3", i, len(res.Values[i]))
		}
	}
	if res.Counts == nil {
		t.Fatal("k-skyband response missing counts")
	}
	if res.Stats.InputSize <= 0 {
		t.Fatalf("stats input size = %d, want > 0", res.Stats.InputSize)
	}

	// Top cut: fewest dominators first, capped length.
	top, err := c.Query(context.Background(), "hotels", &serve.QueryRequest{SkybandK: 2, Top: 3, OmitValues: true})
	if err != nil {
		t.Fatal(err)
	}
	if top.Count != 3 || len(top.Indices) != 3 || top.Values != nil {
		t.Fatalf("top response: count=%d indices=%d values=%v", top.Count, len(top.Indices), top.Values)
	}
	for i := 1; i < len(top.Counts); i++ {
		if top.Counts[i] < top.Counts[i-1] {
			t.Fatalf("top counts not ascending: %v", top.Counts)
		}
	}
}

// TestStreamMutateThenQuery: inserts and deletes through the wire must
// advance the epoch and be reflected by the next query — the
// mutate-then-query consistency contract.
func TestStreamMutateThenQuery(t *testing.T) {
	_, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{})
	ctx := context.Background()
	if _, err := c.Attach(ctx, "live", &serve.AttachRequest{Stream: &serve.StreamSpec{D: 2}}); err != nil {
		t.Fatal(err)
	}

	ids, err := c.Insert(ctx, "live", [][]float64{{5, 5}, {1, 9}, {9, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("insert returned %d ids, want 3", len(ids))
	}
	res, err := c.Query(ctx, "live", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 || len(res.IDs) != 3 {
		t.Fatalf("skyline of anti-correlated triple: count=%d ids=%v", res.Count, res.IDs)
	}
	epoch1 := res.Epoch

	// Insert a dominating point: (0,0) evicts all three.
	if _, err := c.Insert(ctx, "live", [][]float64{{0, 0}}); err != nil {
		t.Fatal(err)
	}
	res2, err := c.Query(ctx, "live", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count != 1 {
		t.Fatalf("after dominating insert: count=%d, want 1", res2.Count)
	}
	if res2.Epoch <= epoch1 {
		t.Fatalf("epoch did not advance across mutation: %d -> %d", epoch1, res2.Epoch)
	}

	// Delete the dominator: the three originals resurface.
	if err := c.Delete(ctx, "live", res2.IDs[0]); err != nil {
		t.Fatal(err)
	}
	res3, err := c.Query(ctx, "live", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Count != 3 || res3.Epoch <= res2.Epoch {
		t.Fatalf("after delete: count=%d epoch %d -> %d", res3.Count, res2.Epoch, res3.Epoch)
	}

	info, err := c.Info(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	if !info.StreamBacked || info.N != 3 || info.D != 2 {
		t.Fatalf("info = %+v", info)
	}
}

// TestDurableAttachRecover: a durable collection created over the wire,
// dropped (checkpointing), and re-attached from the same directory must
// come back with its points.
func TestDurableAttachRecover(t *testing.T) {
	_, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{})
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "wal")

	info, err := c.Attach(ctx, "ticks", &serve.AttachRequest{
		Stream: &serve.StreamSpec{Dir: dir, Create: true, D: 2, Fsync: "always"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Durable {
		t.Fatalf("created collection not durable: %+v", info)
	}
	if _, err := c.Insert(ctx, "ticks", [][]float64{{1, 9}, {9, 1}, {5, 5}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop(ctx, "ticks"); err != nil {
		t.Fatal(err)
	}
	// Same directory, no create: recovery path.
	if _, err := c.Attach(ctx, "ticks2", &serve.AttachRequest{Stream: &serve.StreamSpec{Dir: dir}}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(ctx, "ticks2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 {
		t.Fatalf("recovered skyline count = %d, want 3", res.Count)
	}
}

// TestErrorMappingOverWire: each reachable error class must cross the
// wire with its table status and come back as the right sentinel for
// errors.Is.
func TestErrorMappingOverWire(t *testing.T) {
	srv, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{})
	ctx := context.Background()
	path := genCSV(t, 50, 2, 2)
	if _, err := srv.AttachStaticFile("frozen", path, skybench.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Attach(ctx, "live", &serve.AttachRequest{Stream: &serve.StreamSpec{D: 2}}); err != nil {
		t.Fatal(err)
	}

	check := func(name string, err error, status int, sentinel error) {
		t.Helper()
		var api *client.APIError
		if !errors.As(err, &api) {
			t.Fatalf("%s: error %v (%T) is not an APIError", name, err, err)
		}
		if api.Status != status {
			t.Errorf("%s: status %d, want %d (%s)", name, api.Status, status, api.Code)
		}
		if sentinel != nil && !errors.Is(err, sentinel) {
			t.Errorf("%s: %v does not match sentinel %v over the wire", name, err, sentinel)
		}
	}

	_, err := c.Query(ctx, "nope", nil)
	check("unknown collection", err, http.StatusNotFound, skybench.ErrUnknownCollection)

	_, err = c.Query(ctx, "frozen", &serve.QueryRequest{Prefs: []string{"sideways", "min"}})
	check("bad pref", err, http.StatusBadRequest, skybench.ErrBadQuery)

	// "bnl" was a name once: a removed baseline is as unknown as a typo.
	for _, alg := range []string{"no-such", "bnl"} {
		_, err = c.Query(ctx, "frozen", &serve.QueryRequest{Algorithm: alg})
		check("bad algorithm "+alg, err, http.StatusBadRequest, skybench.ErrUnknownAlgorithm)
	}

	_, err = c.Insert(ctx, "frozen", [][]float64{{1, 2}})
	check("insert into static", err, http.StatusBadRequest, skybench.ErrBadQuery)

	_, err = c.Insert(ctx, "live", [][]float64{{1, 2, 3}})
	check("wrong dimensionality", err, http.StatusBadRequest, skybench.ErrBadPoint)

	err = c.Delete(ctx, "live", 424242)
	check("unknown point", err, http.StatusNotFound, serve.ErrUnknownPoint)

	_, err = c.Attach(ctx, "live", &serve.AttachRequest{Stream: &serve.StreamSpec{D: 2}})
	check("duplicate attach", err, http.StatusConflict, skybench.ErrDuplicateCollection)

	_, err = c.Attach(ctx, "empty", &serve.AttachRequest{})
	check("empty attach", err, http.StatusBadRequest, skybench.ErrBadQuery)

	_, err = c.Attach(ctx, "missing", &serve.AttachRequest{Static: &serve.StaticSpec{Path: filepath.Join(t.TempDir(), "absent.csv")}})
	check("missing static file", err, http.StatusBadRequest, skybench.ErrBadDataset)

	err = c.Drop(ctx, "nope")
	check("drop unknown", err, http.StatusNotFound, skybench.ErrUnknownCollection)
}

// gateSource is a StreamSource whose materialization blocks until its
// gate opens — the deterministic way to hold a query in flight while
// the test probes overload and deadline behavior through the wire.
type gateSource struct {
	d    int
	gate chan struct{}
	vals []float64
	ids  []uint64
}

func newGateSource(d, n int) *gateSource {
	s := &gateSource{d: d, gate: make(chan struct{})}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			s.vals = append(s.vals, rng.Float64())
		}
		s.ids = append(s.ids, uint64(i+1))
	}
	return s
}

func (s *gateSource) D() int            { return s.d }
func (s *gateSource) LiveEpoch() uint64 { return 1 }
func (s *gateSource) LiveSnapshot() ([]float64, []uint64, uint64) {
	<-s.gate
	return append([]float64(nil), s.vals...), append([]uint64(nil), s.ids...), 1
}

// TestDeadlineOverWire: a wire deadline header on a stalled query must
// fire server-side and come back as 504 deadline_exceeded.
func TestDeadlineOverWire(t *testing.T) {
	srv, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{})
	src := newGateSource(2, 100)
	if _, err := srv.Store().AttachStream("gated", src, skybench.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	defer close(src.gate) // release the abandoned materialization

	req, err := http.NewRequest(http.MethodPost, srvURL(c)+"/v1/collections/gated/query", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(serve.DeadlineHeader, "50")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled query with 50ms wire deadline: status %d, want 504", resp.StatusCode)
	}

	// The client's context deadline reaches the server the same way.
	cctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, qerr := c.Query(cctx, "gated", nil); !errors.Is(qerr, skybench.ErrDeadlineExceeded) && !errors.Is(qerr, context.DeadlineExceeded) {
		t.Fatalf("client-deadline query = %v, want a deadline error", qerr)
	}
}

// TestOverloadOverWire: with one admission slot and no queue, a second
// query behind a stalled one must be rejected synchronously with 429.
func TestOverloadOverWire(t *testing.T) {
	srv, c := newTestServer(t,
		skybench.StoreOptions{Threads: 2, MaxInflight: 1, MaxQueue: 0},
		serve.Options{})
	src := newGateSource(2, 100)
	if _, err := srv.Store().AttachStream("gated", src, skybench.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	// A second, fast collection to probe with: admission is store-wide,
	// so while the gated query holds the slot, probes 429 — and they
	// never block on the gate themselves.
	if _, err := srv.AttachStaticFile("fast", genCSV(t, 50, 2, 6), skybench.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}

	// Park one query on the gate, and wait until it visibly holds the
	// only inflight slot (Store.Inflight) before probing — otherwise the
	// probe can slip in first.
	parked := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), "gated", nil)
		parked <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Store().Inflight() == 0 {
		select {
		case err := <-parked:
			t.Fatalf("parked query returned before blocking: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("parked query never acquired the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	// Every further query is now rejected synchronously.
	_, err := c.Query(context.Background(), "fast", nil)
	if !errors.Is(err, skybench.ErrOverloaded) {
		t.Fatalf("probe under load = %v, want ErrOverloaded", err)
	}
	var api *client.APIError
	if !errors.As(err, &api) || api.Status != http.StatusTooManyRequests {
		t.Fatalf("overload error = %v, want APIError 429", err)
	}

	close(src.gate) // release the parked query; it must now succeed
	if err := <-parked; err != nil {
		t.Fatalf("parked query failed after release: %v", err)
	}
}

// panicSource panics during its next materialization when armed — the
// query-execution panic Collection.Run must contain and report as
// ErrQueryPanic rather than crash the server.
type panicSource struct {
	d     int
	armed atomic.Bool
}

func (s *panicSource) D() int            { return s.d }
func (s *panicSource) LiveEpoch() uint64 { return 1 }
func (s *panicSource) LiveSnapshot() ([]float64, []uint64, uint64) {
	if s.armed.CompareAndSwap(true, false) {
		panic("injected materialization fault")
	}
	return []float64{1, 2}, []uint64{1}, 1
}

// TestQueryPanicOverWire: a panic inside query execution must cross the
// wire as 500 query_panic, match ErrQueryPanic, and leave the server
// serving.
func TestQueryPanicOverWire(t *testing.T) {
	srv, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{})
	src := &panicSource{d: 2}
	// Cache disabled so both queries reach the source.
	if _, err := srv.Store().AttachStream("volatile", src, skybench.CollectionOptions{CacheCapacity: -1}); err != nil {
		t.Fatal(err)
	}
	src.armed.Store(true)
	_, err := c.Query(context.Background(), "volatile", nil)
	if !errors.Is(err, skybench.ErrQueryPanic) {
		t.Fatalf("query under injected panic = %v, want ErrQueryPanic", err)
	}
	var api *client.APIError
	if !errors.As(err, &api) || api.Status != http.StatusInternalServerError || api.Code != "query_panic" {
		t.Fatalf("panic mapped as %v, want 500 query_panic", err)
	}
	if res, err := c.Query(context.Background(), "volatile", nil); err != nil || res.Count == 0 {
		t.Fatalf("server did not survive the panic: res=%v err=%v", res, err)
	}
}

// TestDeltaSubscription: a subscriber must see the exact entered/left
// sequence its mutations imply, including re-admission on delete.
func TestDeltaSubscription(t *testing.T) {
	_, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{})
	ctx := context.Background()
	if _, err := c.Attach(ctx, "live", &serve.AttachRequest{Stream: &serve.StreamSpec{D: 2}}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	if _, err := c.Insert(ctx, "live", [][]float64{{5, 5}}); err != nil {
		t.Fatal(err)
	}
	ev, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 1 || len(ev.Entered) != 1 || len(ev.Left) != 0 ||
		ev.Entered[0].Values[0] != 5 || ev.Entered[0].Values[1] != 5 {
		t.Fatalf("event 1 = %+v, want entered (5,5)", ev)
	}
	first := ev.Entered[0].ID

	// A dominating point evicts (5,5).
	ids, err := c.Insert(ctx, "live", [][]float64{{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ev, err = sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 2 || len(ev.Entered) != 1 || len(ev.Left) != 1 ||
		ev.Entered[0].ID != ids[0] || ev.Left[0].ID != first {
		t.Fatalf("event 2 = %+v, want (1,1) in / (5,5) out", ev)
	}

	// A dominated insert changes nothing: no event for it. Deleting the
	// dominator then re-admits (5,5) — but not (6,6), which (5,5) still
	// dominates — so the next event is the delete's, with Seq 3.
	if _, err := c.Insert(ctx, "live", [][]float64{{6, 6}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, "live", ids[0]); err != nil {
		t.Fatal(err)
	}
	ev, err = sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 3 || len(ev.Entered) != 1 || len(ev.Left) != 1 ||
		ev.Entered[0].ID != first || ev.Left[0].ID != ids[0] {
		t.Fatalf("event 3 = %+v, want (5,5) re-admitted / (1,1) out (and no event for the dominated insert)", ev)
	}
}

// TestSlowSubscriberDisconnect: a subscriber that never drains its
// queue must be cut loose — the server counts the drop and the index
// keeps accepting mutations unhindered.
func TestSlowSubscriberDisconnect(t *testing.T) {
	srv, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{DeltaQueue: 1})
	ctx := context.Background()
	if _, err := c.Attach(ctx, "live", &serve.AttachRequest{Stream: &serve.StreamSpec{D: 2}}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close() // never reads: the 1-slot queue overflows

	// Anti-diagonal points never dominate each other, so every insert
	// fires an event. A whole batch applies under one index lock hold —
	// hundreds of back-to-back callbacks the 1-slot queue cannot absorb.
	deadline := time.Now().Add(10 * time.Second)
	dropped := false
	for i := 0; !dropped; i++ {
		batch := make([][]float64, 200)
		for j := range batch {
			x := float64(i*len(batch) + j)
			batch[j] = []float64{x, -x}
		}
		if _, err := c.Insert(ctx, "live", batch); err != nil {
			t.Fatal(err)
		}
		text, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		dropped = strings.Contains(text, `skyserved_delta_dropped_total{collection="live"} `)
		if time.Now().After(deadline) {
			t.Fatal("subscriber never disconnected")
		}
	}
	// The index stayed healthy throughout.
	res, err := c.Query(ctx, "live", nil)
	if err != nil || res.Count == 0 {
		t.Fatalf("query after disconnect: res=%v err=%v", res, err)
	}
	_ = srv
}

// TestGracefulShutdown: Drain + http.Server.Shutdown + Close must end
// delta subscriptions, finish in-flight work, and leave the durable
// directory recoverable.
func TestGracefulShutdown(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	st := skybench.NewStoreWithOptions(skybench.StoreOptions{Threads: 2})
	srv := serve.New(st, serve.Options{})
	if _, err := srv.AttachDurable("ticks", dir, true, 2, stream.Config{}, skybench.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)

	c := client.New("http://" + ln.Addr().String())
	ctx := context.Background()
	if _, err := c.Insert(ctx, "ticks", [][]float64{{1, 9}, {9, 1}}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(ctx, "ticks")
	if err != nil {
		t.Fatal(err)
	}
	subEnded := make(chan error, 1)
	go func() {
		for {
			if _, err := sub.Next(); err != nil {
				subEnded <- err
				return
			}
		}
	}()

	// The shutdown sequence skyserved runs on SIGTERM.
	srv.Drain()
	err = c.Healthz(ctx)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %v, want 503 APIError", err)
	}
	// Close sheds the client's idle keep-alive connections before
	// Shutdown. Without it, a connection the client dialed but never
	// reused (the probe above races a fresh dial against the conn the
	// drain just freed) sits in StateNew on the server and Shutdown
	// waits its full grace for it.
	c.Close()
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		t.Fatalf("drain incomplete: %v", err)
	}
	srv.Close()

	select {
	case <-subEnded:
	case <-time.After(5 * time.Second):
		t.Fatal("delta subscription outlived shutdown")
	}
	if _, err := c.Insert(ctx, "ticks", [][]float64{{2, 2}}); err == nil {
		t.Fatal("insert succeeded after shutdown")
	}

	// The durable directory recovers cleanly with both points.
	ix, err := stream.Recover(dir, stream.Config{})
	if err != nil {
		t.Fatalf("recover after shutdown: %v", err)
	}
	defer ix.Close()
	if ix.Len() != 2 {
		t.Fatalf("recovered %d points, want 2", ix.Len())
	}
}

// TestShutdownLeavesNoGoroutines: the shutdown sequence skyserved runs
// on SIGTERM — Drain, http.Server.Shutdown, Close — with an NDJSON delta
// subscriber still connected must end every goroutine the server, its
// Store, the subscription's handler and both ends of its connection
// started, so the goroutine count returns to where it began.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	st := skybench.NewStoreWithOptions(skybench.StoreOptions{Threads: 2})
	srv := serve.New(st, serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	c := client.New("http://" + ln.Addr().String())
	ctx := context.Background()
	if _, err := c.Attach(ctx, "live", &serve.AttachRequest{Stream: &serve.StreamSpec{D: 2}}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := c.Insert(ctx, "live", [][]float64{{1, 9}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Next(); err != nil {
		t.Fatalf("subscriber saw no delta before shutdown: %v", err)
	}
	// Preferences the index does not maintain run the Store's engine,
	// whose pool workers Close must end too.
	if _, err := c.Query(ctx, "live", &serve.QueryRequest{Prefs: []string{"max", "min"}}); err != nil {
		t.Fatal(err)
	}

	srv.Drain()
	c.Close()
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		t.Fatalf("drain incomplete: %v", err)
	}
	srv.Close()
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	if _, err := sub.Next(); err == nil {
		t.Fatal("delta subscription outlived shutdown")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after shutdown, %d before:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestListAndMetrics: the listing is sorted, and the metrics endpoint
// exposes the request counters and scrape-time collection gauges.
func TestListAndMetrics(t *testing.T) {
	srv, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{})
	ctx := context.Background()
	path := genCSV(t, 100, 2, 4)
	if _, err := srv.AttachStaticFile("zeta", path, skybench.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Attach(ctx, "alpha", &serve.AttachRequest{Stream: &serve.StreamSpec{D: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "zeta", nil); err != nil {
		t.Fatal(err)
	}

	infos, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "zeta" {
		t.Fatalf("listing = %+v, want [alpha zeta]", infos)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`skyserved_requests_total{collection="zeta",endpoint="query"} 1`,
		`skyserved_collection_points{collection="zeta"} 100`,
		"skyserved_request_duration_seconds_bucket",
		"skyserved_store_inflight 0",
		`skyserved_query_algorithm_seconds_count{collection="zeta",algorithm="hybrid"} 1`,
		`skyserved_query_dominance_tests_count{collection="zeta",algorithm="hybrid"} 1`,
		"skyserved_goroutines ",
		"skyserved_heap_alloc_bytes ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if err := metrics.Lint(strings.NewReader(text)); err != nil {
		t.Errorf("live exposition fails lint: %v", err)
	}
}

// TestQueryTraceRoundTrip: Query.Trace survives the wire exactly. A
// traced miss returns a full trace; a traced repeat is a cache hit
// whose minimal trace is deterministic, so the in-process trace and the
// client-decoded trace for the same query must be deeply equal — the
// acceptance bound on the trace's JSON encoding (durations as integer
// nanoseconds, no lossy fields).
func TestQueryTraceRoundTrip(t *testing.T) {
	srv, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{})
	path := genCSV(t, 500, 3, 9)
	if _, err := srv.AttachStaticFile("hotels", path, skybench.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := &serve.QueryRequest{SkybandK: 2, Trace: true}

	res1, err := c.Query(ctx, "hotels", req)
	if err != nil {
		t.Fatal(err)
	}
	tr := res1.Trace
	if tr == nil {
		t.Fatal("traced query returned no trace")
	}
	if tr.CacheHit {
		t.Error("first traced query marked as cache hit")
	}
	if tr.DominanceTests != res1.Stats.DominanceTests || tr.Elapsed <= 0 {
		t.Errorf("wire trace disagrees with stats: %+v vs %+v", tr, res1.Stats)
	}

	// In-process traced repeat: a cache hit with a deterministic
	// minimal trace.
	col, err := srv.Store().Collection("hotels")
	if err != nil {
		t.Fatal(err)
	}
	inproc, err := col.Run(ctx, skybench.Query{SkybandK: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if inproc.Trace == nil || !inproc.Trace.CacheHit {
		t.Fatalf("in-process repeat: trace = %+v, want cache-hit trace", inproc.Trace)
	}

	// The same repeat over the wire must decode to the identical trace.
	res2, err := c.Query(ctx, "hotels", req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.Trace, inproc.Trace) {
		t.Errorf("trace did not round-trip the wire:\n  wire:       %+v\n  in-process: %+v", res2.Trace, inproc.Trace)
	}

	// An untraced request stays trace-free.
	res3, err := c.Query(ctx, "hotels", &serve.QueryRequest{SkybandK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Trace != nil {
		t.Error("untraced query carried a trace")
	}
}

// TestEventLog: with an event log attached, each request appends one
// well-formed NDJSON line carrying the query fingerprint and outcome.
func TestEventLog(t *testing.T) {
	var buf safeBuffer
	evlog := serve.NewEventLog(&buf)
	srv, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{Events: evlog})
	path := genCSV(t, 100, 2, 5)
	if _, err := srv.AttachStaticFile("hotels", path, skybench.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := &serve.QueryRequest{SkybandK: 2}
	if _, err := c.Query(ctx, "hotels", req); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "hotels", req); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "nope", nil); err == nil {
		t.Fatal("expected 404")
	}

	if err := evlog.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("event log has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	fp := serve.QueryFingerprint(req)
	if !strings.Contains(lines[0], fp) || !strings.Contains(lines[1], fp) {
		t.Errorf("query events missing fingerprint %s:\n%s", fp, buf.String())
	}
	if !strings.Contains(lines[1], `"cacheHit":true`) {
		t.Errorf("repeat query not logged as a cache hit: %s", lines[1])
	}
	if !strings.Contains(lines[2], `"status":404`) || !strings.Contains(lines[2], `"code":"unknown_collection"`) {
		t.Errorf("404 event malformed: %s", lines[2])
	}
}

// TestSlowQueryLog: with a slow-query threshold set, every query is
// traced server-side and a query at/over the threshold gets its full
// trace attached to its event-log record — without the trace leaking
// into responses that did not ask for one.
func TestSlowQueryLog(t *testing.T) {
	var buf safeBuffer
	evlog := serve.NewEventLog(&buf)
	srv, c := newTestServer(t, skybench.StoreOptions{Threads: 2},
		serve.Options{Events: evlog, SlowQuery: time.Nanosecond})
	path := genCSV(t, 200, 2, 3)
	if _, err := srv.AttachStaticFile("hotels", path, skybench.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := c.Query(ctx, "hotels", &serve.QueryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("server-forced tracing leaked into an untraced response")
	}
	if err := evlog.Flush(); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	for _, want := range []string{`"algorithm":"hybrid"`, `"trace":{`, `"dominance_tests":`} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-query event missing %s:\n%s", want, line)
		}
	}
}

// safeBuffer is a strings.Builder safe for the concurrent writes the
// event log performs.
type safeBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *safeBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestAutoQueryWire: an Algorithm "auto" query over the wire reports
// what it ran as — hybrid, in the response and in its trace — and
// its cost is booked under hybrid, never "auto", with no planner family
// in the exposition.
func TestAutoQueryWire(t *testing.T) {
	srv, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{})
	path := genCSV(t, 800, 4, 17)
	if _, err := srv.AttachStaticFile("hotels", path, skybench.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	res, err := c.Query(ctx, "hotels", &serve.QueryRequest{Algorithm: "auto", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	want := skybench.PlannerTrace{Algorithm: "hybrid"}
	if res.Planner == nil || *res.Planner != want {
		t.Fatalf("auto response planner %+v, want %+v", res.Planner, want)
	}
	if res.Trace == nil || !reflect.DeepEqual(res.Trace.Planner, res.Planner) {
		t.Errorf("trace.planner and response planner diverge: %+v", res.Trace)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `skyserved_query_algorithm_seconds_count{collection="hotels",algorithm="hybrid"} 1`) {
		t.Error("exposition books no hybrid run for the auto query")
	}
	if strings.Contains(text, `algorithm="auto"`) || strings.Contains(text, "planner") {
		t.Error(`exposition attributes cost to algorithm="auto" or has a planner family`)
	}
	if err := metrics.Lint(strings.NewReader(text)); err != nil {
		t.Errorf("exposition does not lint: %v", err)
	}
}

// TestOversizedAlphaBetaRequest: α and β come from the request body and
// size allocations inside the engine; an oversized value is answered
// like the default tuning, never with a fatal out-of-memory that takes
// the whole server down.
func TestOversizedAlphaBetaRequest(t *testing.T) {
	srv, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{})
	if _, err := srv.AttachStaticFile("hotels", genCSV(t, 300, 3, 9), skybench.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	// band renders rows and their counts (a k-skyband's) in row order:
	// the algorithm's order depends on the tuning.
	band := func(r *serve.QueryResponse) string {
		rows := make([]string, len(r.Indices))
		for p, i := range r.Indices {
			rows[p] = fmt.Sprint(i)
			if r.Counts != nil {
				rows[p] += fmt.Sprintf(":%d", r.Counts[p])
			}
		}
		slices.Sort(rows)
		return strings.Join(rows, " ")
	}
	for _, tc := range []struct {
		body string
		k    int
	}{
		{`{"alpha":1000000000000}`, 0},
		{`{"beta":1000000000000,"skybandK":2}`, 2},
		{`{"alpha":1099511627776,"beta":4611686018427387904,"skybandK":2}`, 2},
	} {
		want, err := c.Query(context.Background(), "hotels", &serve.QueryRequest{SkybandK: tc.k})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srvURL(c)+"/v1/collections/hotels/query", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var got serve.QueryResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("%s: status %d, decode %v", tc.body, resp.StatusCode, err)
		}
		if band(&got) != band(want) {
			t.Errorf("%s: answered %s, the default tuning %s", tc.body, band(&got), band(want))
		}
	}
}

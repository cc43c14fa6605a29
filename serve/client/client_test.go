package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skybench"
	"skybench/serve"
)

// flakyRT is a RoundTripper that fails the first `failures` requests
// with a transport error (no HTTP response), then delegates. It also
// counts every request that reached it.
type flakyRT struct {
	mu       sync.Mutex
	failures int
	calls    int
	next     http.RoundTripper
}

func (f *flakyRT) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.calls++
	fail := f.failures > 0
	if fail {
		f.failures--
	}
	f.mu.Unlock()
	if fail {
		return nil, errors.New("flaky: connection reset by peer")
	}
	return f.next.RoundTrip(req)
}

func (f *flakyRT) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// newRetryHarness starts a stub server answering every query with a
// fixed result and wires a client to it through a flakyRT that fails
// the first `failures` requests.
func newRetryHarness(t *testing.T, failures int) (*Client, *flakyRT, *int) {
	t.Helper()
	requests := 0
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requests++
		mu.Unlock()
		_ = json.NewEncoder(w).Encode(&serve.QueryResponse{
			QueryHead: serve.QueryHead{Collection: "c", Count: 1},
			QueryRows: serve.QueryRows{Indices: []int{0}},
		})
	}))
	t.Cleanup(srv.Close)
	rt := &flakyRT{failures: failures, next: srv.Client().Transport}
	c := NewWithHTTPClient(srv.URL, &http.Client{Transport: rt})
	t.Cleanup(c.Close)
	return c, rt, &requests
}

func TestRetryTransientQuery(t *testing.T) {
	c, rt, requests := newRetryHarness(t, 2)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond})
	res, err := c.Query(context.Background(), "c", nil)
	if err != nil {
		t.Fatalf("Query after retries: %v", err)
	}
	if res.Count != 1 {
		t.Fatalf("Count = %d, want 1", res.Count)
	}
	if got := c.RetryCount(); got != 2 {
		t.Fatalf("RetryCount = %d, want 2", got)
	}
	if rt.callCount() != 3 || *requests != 1 {
		t.Fatalf("attempts = %d (server saw %d), want 3 attempts / 1 served", rt.callCount(), *requests)
	}
}

func TestRetryDisabledByDefault(t *testing.T) {
	c, rt, _ := newRetryHarness(t, 1)
	if _, err := c.Query(context.Background(), "c", nil); err == nil {
		t.Fatal("Query should surface the transport error without a policy")
	}
	if rt.callCount() != 1 {
		t.Fatalf("attempts = %d, want 1", rt.callCount())
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	c, rt, _ := newRetryHarness(t, 10)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond})
	if _, err := c.Query(context.Background(), "c", nil); err == nil {
		t.Fatal("Query should fail once attempts are exhausted")
	}
	if rt.callCount() != 3 {
		t.Fatalf("attempts = %d, want 3", rt.callCount())
	}
}

func TestMutationsNeverRetry(t *testing.T) {
	c, rt, _ := newRetryHarness(t, 10)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 4, Backoff: time.Millisecond})
	if _, err := c.Insert(context.Background(), "c", [][]float64{{1, 2}}); err == nil {
		t.Fatal("Insert should fail without retrying")
	}
	if rt.callCount() != 1 {
		t.Fatalf("Insert attempts = %d, want 1 (mutations must not retry)", rt.callCount())
	}
	if err := c.Drop(context.Background(), "c"); err == nil {
		t.Fatal("Drop should fail without retrying")
	}
	if rt.callCount() != 2 {
		t.Fatalf("total attempts = %d, want 2", rt.callCount())
	}
	if got := c.RetryCount(); got != 0 {
		t.Fatalf("RetryCount = %d, want 0", got)
	}
}

func TestGETsRetry(t *testing.T) {
	c, rt, _ := newRetryHarness(t, 1)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond})
	// The stub answers every path with a QueryResponse, which decodes
	// fine into the list shape's ignored fields — only transport
	// behavior matters here.
	if _, err := c.List(context.Background()); err != nil {
		t.Fatalf("List after one retry: %v", err)
	}
	if rt.callCount() != 2 {
		t.Fatalf("attempts = %d, want 2", rt.callCount())
	}
}

func TestAPIErrorsNeverRetry(t *testing.T) {
	requests := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_, _ = w.Write([]byte(`{"error":{"code":"unknown_collection","message":"no such collection"}}`))
	}))
	defer srv.Close()
	c := NewWithHTTPClient(srv.URL, srv.Client())
	defer c.Close()
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 4, Backoff: time.Millisecond})
	_, err := c.Query(context.Background(), "nope", nil)
	if !errors.Is(err, skybench.ErrUnknownCollection) {
		t.Fatalf("err = %v, want ErrUnknownCollection", err)
	}
	if requests != 1 {
		t.Fatalf("server saw %d requests, want 1 (server answers are authoritative)", requests)
	}
}

func TestRetryBackoffHonorsContext(t *testing.T) {
	c, _, _ := newRetryHarness(t, 10)
	// A backoff far beyond the deadline: the sleep must be cut short by
	// the context, not served in full.
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 5, Backoff: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Query(ctx, "c", nil)
	if err == nil {
		t.Fatal("Query should fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Query blocked %v in backoff past its deadline", elapsed)
	}
}

func TestExpiredContextNotRetried(t *testing.T) {
	// A transport failure caused by the context itself (deadline fired
	// mid-request) must not be retried: the budget is gone.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
	}))
	defer srv.Close()
	rt := &flakyRT{next: srv.Client().Transport}
	c := NewWithHTTPClient(srv.URL, &http.Client{Transport: rt})
	defer c.Close()
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 5, Backoff: time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.Query(ctx, "c", nil); err == nil {
		t.Fatal("Query should fail on its deadline")
	}
	if rt.callCount() != 1 {
		t.Fatalf("attempts = %d, want 1 (expired context must not retry)", rt.callCount())
	}
	if got := c.RetryCount(); got != 0 {
		t.Fatalf("RetryCount = %d, want 0", got)
	}
}

// countReuse runs 50 value-carrying queries on one client and reports
// how many of them found their connection already open.
func countReuse(t *testing.T, c *Client, check func(*serve.QueryResponse)) int {
	t.Helper()
	reused := 0
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				reused++
			}
		},
	})
	for i := 0; i < 50; i++ {
		res, err := c.Query(ctx, "c", nil)
		if err != nil {
			t.Fatal(err)
		}
		check(res)
	}
	return reused
}

// TestOldServerKeepAlive: a server from before the result frame ignores
// Accept and streams chunked JSON with no Content-Length. The client
// must decode it by its Content-Type and read it to the chunked
// terminator, or net/http throws the connection away: every query after
// the first reuses the one connection.
func TestOldServerKeepAlive(t *testing.T) {
	want := &serve.QueryResponse{QueryHead: serve.QueryHead{Collection: "c", Epoch: 3, Count: 2000}}
	for i := 0; i < want.Count; i++ {
		want.Indices = append(want.Indices, i)
		want.Values = append(want.Values, []float64{float64(i) / 7, 1 / float64(i+1), -float64(i)})
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("Accept"); got != queryAccept {
			t.Errorf("Accept = %q, want %q", got, queryAccept)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(want)
	}))
	defer srv.Close()
	c := New(srv.URL)
	defer c.Close()
	reused := countReuse(t, c, func(res *serve.QueryResponse) {
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("decoded %d rows of %q, want the stub's answer", len(res.Indices), res.Collection)
		}
	})
	if reused < 49 {
		t.Errorf("%d of 50 chunked-JSON queries reused their connection, want ≥ 49", reused)
	}
}

// TestFrameKeepAlive: against a real server the same 50 queries come
// back as frames with a Content-Length, on one connection.
func TestFrameKeepAlive(t *testing.T) {
	const n, d = 3000, 4
	vals := make([]float64, n*d)
	for i := range vals {
		vals[i] = float64((i*7919)%1000) / 1000
	}
	ds, err := skybench.DatasetFromFlat(vals, n, d)
	if err != nil {
		t.Fatal(err)
	}
	st := skybench.NewStore(1)
	if _, err := st.Attach("c", ds, skybench.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	s := serve.New(st, serve.Options{})
	var frames atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.ServeHTTP(w, r)
		if w.Header().Get("Content-Type") == serve.FrameContentType && w.Header().Get("Content-Length") != "" {
			frames.Add(1)
		}
	}))
	defer func() {
		hs.Close()
		s.Close()
	}()
	c := New(hs.URL)
	defer c.Close()
	reused := countReuse(t, c, func(res *serve.QueryResponse) {
		if res.Count == 0 || len(res.Values) != res.Count || len(res.Values[0]) != d {
			t.Fatalf("count %d with %d value rows", res.Count, len(res.Values))
		}
	})
	if reused < 49 || frames.Load() != 50 {
		t.Errorf("%d of 50 queries reused their connection over %d frames, want ≥ 49 over 50", reused, frames.Load())
	}
}

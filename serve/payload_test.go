// The response path end to end: frame = JSON = in-process on every kind
// of answer, a hit served from the bytes an earlier request encoded, and
// hits and misses told apart when they overlap.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skybench"
	"skybench/serve"
	"skybench/serve/metrics"
)

// epochSource is a StreamSource whose epoch the test advances and whose
// next materialization it can park, which is what makes a stale answer.
type epochSource struct {
	d     int
	vals  []float64
	ids   []uint64
	epoch atomic.Uint64
	park  chan struct{} // closed: materialize freely
}

func (s *epochSource) D() int            { return s.d }
func (s *epochSource) LiveEpoch() uint64 { return s.epoch.Load() }
func (s *epochSource) LiveSnapshot() ([]float64, []uint64, uint64) {
	if s.epoch.Load() > 1 {
		<-s.park
	}
	return append([]float64(nil), s.vals...), append([]uint64(nil), s.ids...), s.epoch.Load()
}

// postQuery sends one raw query and returns the response's Content-Type
// and whole body.
func postQuery(t *testing.T, base, collection string, req *serve.QueryRequest, accept string) (string, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, base+"/v1/collections/"+collection+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		hr.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", collection, resp.StatusCode, data)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(data)) {
		t.Errorf("%s: Content-Length %q on a %d-byte body", collection, cl, len(data))
	}
	return resp.Header.Get("Content-Type"), data
}

// TestFrameEqualsJSONEqualsInProcess: for every kind of answer the frame
// round trip DeepEquals the JSON round trip, the typed client returns
// the same thing, and indices, ids, counts and rows are, bit for bit,
// what the in-process QueryResult holds.
func TestFrameEqualsJSONEqualsInProcess(t *testing.T) {
	srv, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{})
	ctx := context.Background()
	st := srv.Store()

	if _, err := srv.AttachStaticFile("static", genCSV(t, 800, 4, 11), skybench.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Attach(ctx, "stream", &serve.AttachRequest{Stream: &serve.StreamSpec{D: 3}}); err != nil {
		t.Fatal(err)
	}
	var pts [][]float64
	for i := 0; i < 60; i++ {
		x := float64(i) / 60
		pts = append(pts, []float64{x, 1 - x, math.Mod(x*7, 1)})
	}
	if _, err := c.Insert(ctx, "stream", pts); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Attach(ctx, "empty", &serve.AttachRequest{Stream: &serve.StreamSpec{D: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AttachRemote("partial", &fakeRemote{n: 4, d: 2, epoch: 9, partial: true}, skybench.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	src := &epochSource{d: 2, vals: []float64{1, 9, 9, 1, 5, 5, 6, 6}, ids: []uint64{10, 11, 12, 13}, park: make(chan struct{})}
	src.epoch.Store(1)
	defer close(src.park)
	if _, err := st.AttachStream("stale", src, skybench.CollectionOptions{DefaultTimeout: 40 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, collection string
		req              serve.QueryRequest
		stale, partial   bool
	}{
		{name: "static skyline", collection: "static"},
		{name: "max/ignore prefs", collection: "static", req: serve.QueryRequest{Prefs: []string{"max", "min", "ignore", "min"}}},
		{name: "stream ids", collection: "stream"},
		{name: "k-skyband counts", collection: "static", req: serve.QueryRequest{SkybandK: 3}},
		{name: "k-skyband ids and counts", collection: "stream", req: serve.QueryRequest{SkybandK: 2}},
		{name: "top cut", collection: "static", req: serve.QueryRequest{SkybandK: 3, Top: 5}},
		{name: "top past the end", collection: "static", req: serve.QueryRequest{SkybandK: 3, Top: 1 << 20}},
		{name: "omitValues", collection: "stream", req: serve.QueryRequest{SkybandK: 2, OmitValues: true}},
		{name: "hit trace", collection: "static", req: serve.QueryRequest{SkybandK: 3, Trace: true}},
		{name: "empty result", collection: "empty"},
		{name: "partial cluster answer", collection: "partial", partial: true},
		{name: "stale", collection: "stale", req: serve.QueryRequest{AllowStale: true}, stale: true}, // last: it rewinds the epoch
	}
	// Prime, so that every comparison below reads one cached result and
	// its stats, not two separate computations.
	for _, tc := range cases {
		req := tc.req
		req.Trace = false
		if _, err := c.Query(ctx, tc.collection, &req); err != nil {
			t.Fatalf("priming %s: %v", tc.name, err)
		}
	}
	src.epoch.Store(2) // "stale" now needs a materialization that never comes

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctype, fb := postQuery(t, srvURL(c), tc.collection, &tc.req, serve.FrameContentType)
			if ctype != serve.FrameContentType {
				t.Fatalf("asked for a frame, got Content-Type %q", ctype)
			}
			frame, err := serve.DecodeQueryFrame(fb)
			if err != nil {
				t.Fatal(err)
			}
			ctype, jb := postQuery(t, srvURL(c), tc.collection, &tc.req, "")
			if ctype != "application/json" {
				t.Fatalf("plain request got Content-Type %q", ctype)
			}
			var js serve.QueryResponse
			if err := json.Unmarshal(jb, &js); err != nil {
				t.Fatal(err)
			}
			// The spliced JSON body is what encoding/json makes of the whole
			// response in one piece.
			if one, _ := json.Marshal(&js); !bytes.Equal(append(one, '\n'), jb) {
				t.Errorf("JSON body is not the canonical encoding of its own value:\n%s\n%s", jb, one)
			}
			if !reflect.DeepEqual(frame, &js) {
				t.Fatalf("frame and JSON decode differently:\nframe %+v\njson  %+v", frame, &js)
			}
			if frame.Stale != tc.stale || frame.Partial != tc.partial {
				t.Errorf("stale=%v partial=%v, want %v %v", frame.Stale, frame.Partial, tc.stale, tc.partial)
			}

			typed, err := c.Query(ctx, tc.collection, &tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(typed, frame) {
				t.Errorf("client.Query differs from the raw frame:\n%+v\n%+v", typed, frame)
			}

			// Against the in-process result, bit for bit.
			if tc.stale {
				src.epoch.Store(1)
			}
			col, err := st.Collection(tc.collection)
			if err != nil {
				t.Fatal(err)
			}
			q := skybench.Query{SkybandK: tc.req.SkybandK}
			for _, p := range tc.req.Prefs {
				q.Prefs = append(q.Prefs, map[string]skybench.Pref{"min": skybench.Min, "max": skybench.Max, "ignore": skybench.Ignore}[p])
			}
			want, err := col.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			pos := make(map[int]int, want.Len())
			for p, ix := range want.Indices {
				pos[ix] = p
			}
			wantIdx := want.Indices
			if tc.req.Top > 0 && tc.req.Top < want.Len() {
				wantIdx = want.TopK(tc.req.Top)
			}
			if !reflect.DeepEqual(frame.Indices, append([]int{}, wantIdx...)) {
				t.Fatalf("indices %v, in-process %v", frame.Indices, wantIdx)
			}
			if (frame.Values == nil) != (tc.req.OmitValues || frame.Count == 0) {
				t.Errorf("values present = %v with omitValues = %v", frame.Values != nil, tc.req.OmitValues)
			}
			for i, ix := range frame.Indices {
				p, ok := pos[ix]
				if !ok {
					t.Fatalf("index %d is not in the in-process result", ix)
				}
				if want.Counts != nil && frame.Counts[i] != want.Counts[p] {
					t.Errorf("count of row %d: %d, in-process %d", ix, frame.Counts[i], want.Counts[p])
				}
				if id, ok := want.ID(p); ok && frame.IDs[i] != id {
					t.Errorf("id of row %d: %d, in-process %d", ix, frame.IDs[i], id)
				}
				if frame.Values != nil {
					for j, v := range want.Row(p) {
						if math.Float64bits(frame.Values[i][j]) != math.Float64bits(v) {
							t.Errorf("row %d coordinate %d: %v, in-process %v", ix, j, frame.Values[i][j], v)
						}
					}
				}
			}
			if want.Counts == nil && frame.Counts != nil {
				t.Errorf("counts on a plain skyline: %v", frame.Counts)
			}
		})
	}
}

// captureWriter is a ResponseWriter that keeps the slices it is handed,
// uncopied: what reaches the connection, by identity.
type captureWriter struct {
	hdr    http.Header
	writes [][]byte
}

func (w *captureWriter) Header() http.Header { return w.hdr }
func (w *captureWriter) WriteHeader(int)     {}
func (w *captureWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, p)
	return len(p), nil
}

func serveQuery(srv *serve.Server, collection, accept string) *captureWriter {
	r := httptest.NewRequest(http.MethodPost, "/v1/collections/"+collection+"/query", strings.NewReader("{}"))
	if accept != "" {
		r.Header.Set("Accept", accept)
	}
	w := &captureWriter{hdr: make(http.Header, 4)}
	srv.ServeHTTP(w, r)
	return w
}

// TestHitServesMemoisedPayload: a hit writes the head and then the very
// slice an earlier request encoded — the same backing array, not an equal
// copy — at an allocation count that does not depend on the size of the
// answer; a new epoch gets new bytes.
func TestHitServesMemoisedPayload(t *testing.T) {
	srv, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{})
	if _, err := srv.AttachStaticFile("small", genCSV(t, 40, 2, 3), skybench.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AttachStaticFile("large", genCSV(t, 6000, 6, 4), skybench.CollectionOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, accept := range []string{serve.FrameContentType, ""} {
		var sizes, allocs [2]float64
		for i, name := range []string{"small", "large"} {
			serveQuery(srv, name, accept) // the miss encodes
			a, b := serveQuery(srv, name, accept), serveQuery(srv, name, accept)
			if len(a.writes) != 2 || len(b.writes) != 2 {
				t.Fatalf("%s: %d and %d writes, want head + payload", name, len(a.writes), len(b.writes))
			}
			pa, pb := a.writes[1], b.writes[1]
			if &pa[0] != &pb[0] || len(pa) != len(pb) {
				t.Errorf("%s (%q): two hits wrote different payload slices", name, accept)
			}
			if cl, _ := strconv.Atoi(a.hdr.Get("Content-Length")); cl != len(a.writes[0])+len(pa) {
				t.Errorf("%s: Content-Length %d, wrote %d", name, cl, len(a.writes[0])+len(pa))
			}
			sizes[i] = float64(len(pa))
			allocs[i] = testing.AllocsPerRun(50, func() { serveQuery(srv, name, accept) })
		}
		if sizes[1] < 20*sizes[0] {
			t.Fatalf("payloads of %v bytes do not tell small from large", sizes)
		}
		if math.Abs(allocs[1]-allocs[0]) > 2 {
			t.Errorf("accept %q: %v allocations for a %v-byte hit, %v for a %v-byte hit", accept, allocs[0], sizes[0], allocs[1], sizes[1])
		}
	}

	// A mutation starts a new epoch: its answer is encoded afresh, from
	// that epoch's rows.
	ctx := context.Background()
	if _, err := c.Attach(ctx, "ticks", &serve.AttachRequest{Stream: &serve.StreamSpec{D: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(ctx, "ticks", [][]float64{{1, 9}, {9, 1}}); err != nil {
		t.Fatal(err)
	}
	serveQuery(srv, "ticks", serve.FrameContentType)
	old := serveQuery(srv, "ticks", serve.FrameContentType)
	if _, err := c.Insert(ctx, "ticks", [][]float64{{0.5, 0.5}}); err != nil {
		t.Fatal(err)
	}
	fresh := serveQuery(srv, "ticks", serve.FrameContentType)
	again := serveQuery(srv, "ticks", serve.FrameContentType)
	if &fresh.writes[1][0] == &old.writes[1][0] {
		t.Error("the answer at a new epoch reused the previous epoch's bytes")
	}
	if &fresh.writes[1][0] != &again.writes[1][0] {
		t.Error("the new epoch's hit did not reuse the new epoch's bytes")
	}
	before, err := serve.DecodeQueryFrame(append(bytes.Clone(old.writes[0]), old.writes[1]...))
	if err != nil {
		t.Fatal(err)
	}
	after, err := serve.DecodeQueryFrame(append(bytes.Clone(fresh.writes[0]), fresh.writes[1]...))
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch <= before.Epoch || before.Count != 2 || after.Count != 1 || after.Values[0][0] != 0.5 {
		t.Errorf("before the insert %+v, after it %+v", before, after)
	}
}

// TestConcurrentHitsShareBytesWithAWriter: many readers hitting while a
// writer keeps starting epochs; under -race this is the proof that
// published bytes are never written again.
func TestConcurrentHitsShareBytesWithAWriter(t *testing.T) {
	srv, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{})
	ctx := context.Background()
	if _, err := c.Attach(ctx, "ticks", &serve.AttachRequest{Stream: &serve.StreamSpec{D: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(ctx, "ticks", [][]float64{{1, 9}, {9, 1}}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			accept := []string{serve.FrameContentType, ""}[g%2]
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := serveQuery(srv, "ticks", accept)
				if len(w.writes) != 2 {
					t.Errorf("%d writes", len(w.writes))
					return
				}
				if accept != "" {
					if _, err := serve.DecodeQueryFrame(append(bytes.Clone(w.writes[0]), w.writes[1]...)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < 30; i++ {
		x := 0.9 - float64(i)/100
		if _, err := c.Insert(ctx, "ticks", [][]float64{{x, x}}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// TestCacheHitAttributionUnderOverlap: slow misses on a collection that
// other requests are hitting all the while. The call that did the lookup
// says whether it hit, so every miss is observed exactly once by the
// engine-cost histograms and every event line has CacheHit right — two
// reads of the shared hit counter around the call flagged the misses as
// hits whenever a neighbour's hit landed between them.
func TestCacheHitAttributionUnderOverlap(t *testing.T) {
	var buf safeBuffer
	evlog := serve.NewEventLog(&buf)
	srv, c := newTestServer(t, skybench.StoreOptions{Threads: 2}, serve.Options{Events: evlog})
	col, err := srv.AttachStaticFile("c", genCSV(t, 12000, 6, 9), skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	hot := &serve.QueryRequest{OmitValues: true}
	if _, err := c.Query(ctx, "c", hot); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var sent atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Query(ctx, "c", hot); err != nil {
					t.Error(err)
					return
				}
				sent.Add(1)
			}
		}()
	}
	const misses = 12
	missFP := map[string]bool{}
	for i := 0; i < misses; i++ {
		req := &serve.QueryRequest{OmitValues: true, Prefs: make([]string, 6)}
		for j := range req.Prefs {
			req.Prefs[j] = []string{"min", "max"}[(i+1)>>j&1]
		}
		missFP[serve.QueryFingerprint(req)] = true
		if _, err := c.Query(ctx, "c", req); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if sent.Load() < misses {
		t.Fatalf("only %d hits overlapped %d misses", sent.Load(), misses)
	}

	// A handler books its request after the response has gone out: wait
	// for the last line.
	total := int(sent.Load()) + 1 + misses
	var lines []string
	for try := 0; try < 200 && len(lines) < total; try++ {
		time.Sleep(5 * time.Millisecond)
		if err := evlog.Flush(); err != nil {
			t.Fatal(err)
		}
		lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
	}
	hotFP := serve.QueryFingerprint(hot)
	seenMiss, seenHot, hotComputed := 0, 0, 0
	for _, line := range lines {
		var ev serve.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		switch {
		case missFP[ev.Fingerprint]:
			seenMiss++
			if ev.CacheHit {
				t.Errorf("a computed query was logged as a cache hit: %s", line)
			}
		case ev.Fingerprint == hotFP:
			seenHot++
			if !ev.CacheHit {
				hotComputed++
			}
		}
	}
	if seenMiss != misses || int64(seenHot) != sent.Load()+1 {
		t.Errorf("event log has %d misses and %d hot requests, sent %d and %d", seenMiss, seenHot, misses, sent.Load()+1)
	}
	if hotComputed != 1 { // the request that primed the cache, wherever its line landed
		t.Errorf("%d of %d hot requests logged as computed, want the 1 that primed", hotComputed, seenHot)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	families, err := metrics.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	var observed, served, hits float64
	for _, f := range families {
		for _, s := range f.Samples {
			switch s.Name {
			case "skyserved_query_algorithm_seconds_count":
				observed += s.Value
			case "skyserved_requests_total":
				if ep, _ := s.Get("endpoint"); ep == "query" {
					served += s.Value
				}
			case "skyserved_cache_hits":
				hits = s.Value
			}
		}
	}
	if observed != misses+1 {
		t.Errorf("engine cost observed %v times for %d computed queries", observed, misses+1)
	}
	// The balance cmd/loadbench's crossCheckTelemetry holds.
	if served != float64(total) {
		t.Errorf("skyserved_requests_total = %v, sent %d", served, total)
	}
	if cs := col.CacheStats(); hits != float64(cs.Hits) || cs.Hits != uint64(sent.Load()) {
		t.Errorf("skyserved_cache_hits = %v, CacheStats().Hits = %d, hits sent %d", hits, cs.Hits, sent.Load())
	}
}

package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skybench"
	"skybench/internal/cluster"
	"skybench/serve"
	"skybench/serve/client"
	promtext "skybench/serve/metrics"
)

// serveMix is the serving workload: C closed-loop clients, one
// keep-alive connection each, against an in-process skyserved over two
// collections of the same independent Dataset, both sharded two ways.
// cold has no result cache, so its 16 query shapes are computed and
// fanned out every time and answer with indices only; hot is primed, so
// its 8 full-space shapes are cache hits whose whole cost is the wire
// (about 250 KB of JSON each). A round is 1 cold + 2 hot requests.
type serveMix struct {
	cfg       *config
	sp        spec
	n, d      int
	segRounds int // rounds each client runs between two host probes
	warmup    int // warm-up segments

	vals      []float64
	cold, hot []shape
	reqs      [2][]*serve.QueryRequest // wire form, per class

	ds       *skybench.Dataset
	web      *httpd
	cols     [2]*skybench.Collection // cold, hot
	clients  []*client.Client
	received []*atomic.Int64 // response body bytes, per client
	pos      []int           // ops done, per client: the cycle position
	sent     atomic.Int64    // query requests sent to web
	errs     atomic.Int64    // client calls that failed
	hot0     skybench.CacheStats
	want     [2][]digest
	wantOK   [2][]bool
}

var collNames = [2]string{"cold", "hot"}

func newServeMix(cfg *config) *serveMix {
	w := &serveMix{cfg: cfg, n: 50_000, d: 6, segRounds: 4, warmup: 10}
	callers := cfg.clients
	if cfg.trace {
		callers = 1
	}
	w.sp = spec{
		name:        "serve_mix",
		classes:     [2]string{"client.Query on cold, computed, indices only", "client.Query on hot, cache hit, with values"},
		rounds:      90,
		callers:     callers,
		opsPerRound: 3,
		opName:      "requests",
	}
	if cfg.quick {
		w.n, w.warmup, w.sp.rounds = 4000, 1, 3
	}
	w.sp.samples, w.sp.spans = 3*w.segRounds, 3*w.segRounds
	return w
}

func (w *serveMix) spec() spec { return w.sp }

func (w *serveMix) gen() {
	w.vals = genRows(independent, w.n, w.d, w.cfg.seed)
	w.cold, w.hot = genShapes(w.d, w.cfg.seed)
	for class, shapes := range [2][]shape{w.cold, w.hot} {
		for _, s := range shapes {
			req := &serve.QueryRequest{Algorithm: s.algo, SkybandK: s.k, Top: s.top, OmitValues: class == primary}
			for _, p := range s.prefs {
				req.Prefs = append(req.Prefs, p.String())
			}
			w.reqs[class] = append(w.reqs[class], req)
		}
	}
}

// httpd is one in-process skyserved on a loopback listener.
type httpd struct {
	srv  *serve.Server
	hs   *http.Server
	done chan struct{}
	url  string
}

func startHTTP(st *skybench.Store) (*httpd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	h := &httpd{srv: serve.New(st, serve.Options{}), done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	h.hs = &http.Server{Handler: h.srv}
	go func() {
		defer close(h.done)
		_ = h.hs.Serve(ln) // always ErrServerClosed, after stop
	}()
	return h, nil
}

// stop shuts the listener down, waits for the serving goroutine and
// closes the Store.
func (h *httpd) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = h.hs.Shutdown(ctx) // on timeout the Store still closes below
	<-h.done
	h.srv.Close()
}

// countingTransport counts response body bytes.
type countingTransport struct {
	next http.RoundTripper
	n    *atomic.Int64
}

type countingBody struct {
	rc io.ReadCloser
	n  *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b countingBody) Close() error { return b.rc.Close() }

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{rc: resp.Body, n: t.n}
	}
	return resp, err
}

func (w *serveMix) setup(rec *recorder) error {
	var err error
	rec.h.timed(false, func() { err = w.construct() })
	if err != nil {
		return err
	}
	// Prime hot: one computed answer per shape, hits from then on.
	rec.h.timed(false, func() {
		for s := range w.hot {
			if _, _, _, e := w.query(rec, 0, secondary, s, -1, -1); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return fmt.Errorf("priming hot: %w", err)
	}
	for i := 0; i < w.warmup; i++ {
		w.round(-1, rec)
	}
	w.hot0 = w.cols[secondary].CacheStats()
	return nil
}

func (w *serveMix) construct() error {
	ds, err := skybench.DatasetFromFlat(w.vals, w.n, w.d)
	if err != nil {
		return err
	}
	w.ds = ds
	st := skybench.NewStore(w.cfg.threads)
	for class, capacity := range []int{-1, 0} {
		w.cols[class], err = st.Attach(collNames[class], ds, skybench.CollectionOptions{Shards: 2, CacheCapacity: capacity})
		if err != nil {
			st.Close()
			return err
		}
	}
	if w.web, err = startHTTP(st); err != nil {
		return err
	}
	w.clients, w.received, w.pos = nil, nil, make([]int, w.cfg.clients)
	for c := 0; c < w.cfg.clients; c++ {
		n := new(atomic.Int64)
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		w.clients = append(w.clients, client.NewWithHTTPClient(w.web.url, &http.Client{Transport: countingTransport{next: tr, n: n}}))
		w.received = append(w.received, n)
	}
	w.sent.Store(0)
	w.errs.Store(0)
	return nil
}

func (w *serveMix) close() {
	if w.web == nil {
		return
	}
	for _, c := range w.clients {
		c.Close()
	}
	w.web.stop()
	w.web = nil
}

// query sends one request of the class and shape on client c, inside a
// client.query span, and returns the answer's digest, the latency and
// the response size.
func (w *serveMix) query(rec *recorder, c, class, s int, parent, req int32) (digest, int64, int64, error) {
	before := w.received[c].Load()
	start := time.Now()
	sp := rec.tr.begin("client.query", parent, req)
	resp, err := w.clients[c].Query(context.Background(), collNames[class], w.reqs[class][s])
	rec.tr.end(sp, err == nil)
	ns := int64(time.Since(start))
	w.sent.Add(1)
	if err == nil && (resp.Count != len(resp.Indices) || (class == secondary && len(resp.Values) != resp.Count)) {
		err = errors.New("response count disagrees with its arrays")
	}
	if err != nil {
		w.errs.Add(1)
		return digest{}, ns, 0, err
	}
	return digestOf(resp.Indices, resp.Counts), ns, w.received[c].Load() - before, nil
}

// round is one segment: every client runs segRounds rounds of 1 cold +
// 2 hot requests between two host probes.
func (w *serveMix) round(r int, rec *recorder) {
	piece := int32(len(rec.h.pieces))
	rec.h.timed(false, func() {
		var wg sync.WaitGroup
		for c := 0; c < w.sp.callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < w.segRounds; i++ {
					round := int32(-1)
					if r >= 0 {
						round = int32(r*w.segRounds + i)
					}
					for _, class := range []int{primary, secondary, secondary} {
						s := (w.pos[c] + 5*c) % len(w.reqs[class])
						dig, ns, size, err := w.query(rec, c, class, s, -1, int32(w.pos[c]))
						w.pos[c]++
						rec.add(c, sample{
							class: uint8(class), round: round, piece: piece, shape: int32(s),
							ns: ns, aux: size, ok: err == nil, dig: dig,
						})
					}
				}
			}()
		}
		wg.Wait()
	})
}

func (w *serveMix) verify(rec *recorder) {
	eng := w.web.srv.Store().Engine()
	for class, shapes := range [2][]shape{w.cold, w.hot} {
		w.want[class], w.wantOK[class] = make([]digest, len(shapes)), make([]bool, len(shapes))
		for s, sh := range shapes {
			w.want[class][s], w.wantOK[class][s] = expect(w.cfg, eng, w.vals, w.n, w.d, sh)
		}
	}
	rec.verifyDigests(w.want, w.wantOK)
	w.crossCheckTelemetry(rec)
}

// crossCheckTelemetry holds the server's own /metrics against what the
// generator did: a figure of this benchmark and a scrape may never
// disagree. The server counts a request after it has written the
// response, so the scrape is retried for a moment.
func (w *serveMix) crossCheckTelemetry(rec *recorder) {
	var served, hits float64
	var err error
	for try := 0; try < 50; try++ {
		served, hits, err = w.scrape()
		if err != nil || int64(served) == w.sent.Load() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	rec.check(err == nil, "scraping /metrics: %v", err)
	rec.check(int64(served) == w.sent.Load(), "skyserved_requests_total{endpoint=\"query\"} = %v, generator sent %d", served, w.sent.Load())
	rec.check(uint64(hits) == w.cols[secondary].CacheStats().Hits, "skyserved_cache_hits{collection=\"hot\"} = %v, CacheStats().Hits = %d", hits, w.cols[secondary].CacheStats().Hits)
}

func (w *serveMix) scrape() (served, hits float64, err error) {
	text, err := w.clients[0].Metrics(context.Background())
	if err != nil {
		return 0, 0, err
	}
	families, err := promtext.Parse(strings.NewReader(text))
	if err != nil {
		return 0, 0, err
	}
	for _, f := range families {
		for _, s := range f.Samples {
			endpoint, _ := s.Get("endpoint")
			collection, _ := s.Get("collection")
			switch {
			case s.Name == "skyserved_requests_total" && endpoint == "query":
				served += s.Value
			case s.Name == "skyserved_cache_hits" && collection == collNames[secondary]:
				hits = s.Value
			}
		}
	}
	return served, hits, nil
}

// workers starts two more in-process skyserveds, half the rows each,
// unsharded and uncached, and attaches a coordinator over them to the
// main Store: the same two-way partition as cold, over HTTP instead of
// goroutines. The workers split the thread budget, so the host never
// has more runnable compute threads than in rung 2.
func (w *serveMix) workers() (col *skybench.Collection, co *cluster.Coordinator, stop func(), err error) {
	var started []*httpd
	stop = func() {
		for _, h := range started {
			h.stop()
		}
	}
	var specs []cluster.WorkerSpec
	for i := 0; i < 2; i++ {
		lo, hi := i*w.n/2, (i+1)*w.n/2
		ds, err := skybench.DatasetFromFlat(w.vals[lo*w.d:hi*w.d], hi-lo, w.d)
		if err != nil {
			return nil, nil, stop, err
		}
		st := skybench.NewStore(max(1, w.cfg.threads/2))
		if _, err := st.Attach("part", ds, skybench.CollectionOptions{CacheCapacity: -1}); err != nil {
			st.Close()
			return nil, nil, stop, err
		}
		h, err := startHTTP(st)
		if err != nil {
			return nil, nil, stop, err
		}
		started = append(started, h)
		specs = append(specs, cluster.WorkerSpec{Addr: h.url, Lo: lo, Hi: hi})
	}
	st := w.web.srv.Store()
	co, err = cluster.New(cluster.Config{Collection: "part", D: w.d, Workers: specs, ProbeInterval: -1, Engine: st.Engine()})
	if err != nil {
		return nil, nil, stop, err
	}
	col, err = st.AttachRemote("cluster", co, skybench.CollectionOptions{CacheCapacity: -1, CloseOnDrop: true})
	if err != nil {
		co.Close()
	}
	return col, co, stop, err
}

// ladderReps is how often the traced run replays each rung.
const ladderReps = 5

func (w *serveMix) layers(rec *recorder, m metrics) {
	clusterCol, co, stop, err := w.workers()
	defer stop()
	rec.check(err == nil, "starting the cluster rung: %v", err)
	if err != nil {
		return
	}
	skylineStore := w.ladder(rec, m, clusterCol)
	w.fanoutAccounts(m, clusterCol, co)
	w.qflowOverHybrid(rec, m)
	w.hotPath(rec, m)
	w.planner(rec, m, skylineStore)

	retried := uint64(0)
	for _, c := range w.clients {
		retried += c.RetryCount()
	}
	m.set("serve.errors", float64(w.errs.Load()), "count")
	m.set("client.retries", float64(retried), "count")
	w.crossCheckTelemetry(rec)
}

// ladder takes each cold shape through rung 3 (HTTP), 2 (Collection),
// 1 (Engine) and 4 (coordinator), the spans of one repetition linked
// rung 1 → 2 → 3 so that a rung's self time is its span minus the rung
// below. It returns rung 2's latencies on the plain skyline shapes, in
// ms, for the planner to compare against.
func (w *serveMix) ladder(rec *recorder, m metrics, clusterCol *skybench.Collection) (skylineStore []float64) {
	ctx := context.Background()
	eng := w.web.srv.Store().Engine()
	tr := rec.tr
	ms := func(id int32) float64 { return tr.dur(id) / 1e6 }
	var rung [5][]float64
	var overEngine, overStore, httpSelf []float64
	for rep := 0; rep < ladderReps; rep++ {
		for s, sh := range w.cold {
			req, q := int32(2_000_000+s), sh.query()
			dig3, _, _, err3 := w.query(rec, 0, primary, s, -1, req)
			id3 := int32(len(tr.spans) - 1)
			id2 := tr.begin("collection.run", id3, req)
			r2, err2 := w.cols[primary].Run(ctx, q)
			tr.end(id2, err2 == nil)
			id1 := tr.begin("engine.run", id2, req)
			r1, err1 := eng.Run(ctx, w.ds, q)
			tr.end(id1, err1 == nil)
			id4 := tr.begin("cluster.run", -1, req)
			r4, err4 := clusterCol.Run(ctx, q)
			tr.end(id4, err4 == nil)
			ok := err1 == nil && err2 == nil && err3 == nil && err4 == nil
			rec.check(ok, "ladder shape %d: %v", s, errors.Join(err1, err2, err3, err4))
			if !ok {
				continue
			}
			d1, d2, d4 := digestOf(r1.Indices, r1.Counts), digestOf(r2.Indices, r2.Counts), digestOf(r4.Indices, r4.Counts)
			rec.check(d1 == d2 && d2 == d4 && dig3 == w.want[primary][s], "ladder shape %d: the four rungs disagree", s)
			for i, id := range []int32{id1, id2, id3, id4} {
				rung[i+1] = append(rung[i+1], ms(id))
			}
			overEngine = append(overEngine, ms(id2)/ms(id1))
			overStore = append(overStore, ms(id4)/ms(id2))
			httpSelf = append(httpSelf, float64(selfNs(tr.spans, id3))/1e6)
			if sh.algo == "" && sh.k == 0 {
				skylineStore = append(skylineStore, ms(id2))
			}
		}
	}
	m.set("engine.run_ms_p50", median(rung[1]), "ms")
	m.set("store.miss_ms_p50", median(rung[2]), "ms")
	m.set("store.miss_over_engine", median(overEngine), "ratio")
	m.set("serve.miss_ms_p50", median(rung[3]), "ms")
	m.set("serve.http_overhead_ms", median(httpSelf), "ms")
	m.set("cluster.miss_ms_p50", median(rung[4]), "ms")
	m.set("cluster.miss_over_store", median(overStore), "ratio")
	return skylineStore
}

// fanoutAccounts reads the fan-out's own accounts from traced queries:
// how much of a sharded or clustered query is not its slowest part, and
// how many candidates the parts return per result row.
func (w *serveMix) fanoutAccounts(m metrics, clusterCol *skybench.Collection, co *cluster.Coordinator) {
	ctx := context.Background()
	var mergeFrac, candidates, wireFrac []float64
	for _, sh := range w.cold {
		q := sh.query()
		q.Trace = true
		if res, err := w.cols[primary].Run(ctx, q); err == nil && res.Trace != nil && res.Trace.Elapsed > 0 {
			slowest, out := time.Duration(0), 0
			for _, p := range res.Trace.Shards {
				slowest, out = max(slowest, p.Elapsed), out+p.Output
			}
			mergeFrac = append(mergeFrac, 1-float64(slowest)/float64(res.Trace.Elapsed))
			if res.Len() > 0 {
				candidates = append(candidates, float64(out)/float64(res.Len()))
			}
		}
		start := time.Now()
		if res, err := clusterCol.Run(ctx, q); err == nil && res.Trace != nil {
			total, wire := time.Since(start), time.Duration(0)
			for _, wk := range res.Trace.Workers {
				wire = max(wire, wk.Wire-wk.Elapsed)
			}
			wireFrac = append(wireFrac, float64(wire)/float64(total))
		}
	}
	m.set("shard.merge_frac", median(mergeFrac), "ratio")
	m.set("shard.candidates_per_result", median(candidates), "ratio")
	m.set("cluster.wire_frac", median(wireFrac), "ratio")
	retries := uint64(0)
	for _, wk := range co.Placement().Workers {
		retries += wk.Retries
	}
	m.set("cluster.retries", float64(retries), "count")
}

// qflowOverHybrid runs the two qflow shapes in the Engine under Q-Flow
// and under Hybrid.
func (w *serveMix) qflowOverHybrid(rec *recorder, m metrics) {
	eng := w.web.srv.Store().Engine()
	lat := map[skybench.Algorithm][]float64{}
	for rep := 0; rep < ladderReps; rep++ {
		for _, sh := range w.cold {
			if sh.algo != "qflow" {
				continue
			}
			for _, algo := range []skybench.Algorithm{skybench.QFlow, skybench.Hybrid} {
				q := sh.query()
				q.Algorithm = algo
				start := time.Now()
				_, err := eng.Run(context.Background(), w.ds, q)
				lat[algo] = append(lat[algo], float64(time.Since(start)))
				rec.check(err == nil, "qflow against hybrid: %v", err)
			}
		}
	}
	m.set("core.qflow_over_hybrid", median(lat[skybench.QFlow])/median(lat[skybench.Hybrid]), "ratio")
}

// hotPath times a cache hit in-process and holds it against the same
// hit over the wire in the traced script.
func (w *serveMix) hotPath(rec *recorder, m metrics) {
	tr := rec.tr
	var hit, wireHit, respKB []float64
	for rep := 0; rep < ladderReps; rep++ {
		for _, sh := range w.hot {
			id := tr.begin("collection.run", -1, 3_000_000)
			_, err := w.cols[secondary].Run(context.Background(), sh.query())
			tr.end(id, err == nil)
			rec.check(err == nil, "hot hit in-process: %v", err)
			hit = append(hit, tr.dur(id)/1e3)
		}
	}
	rec.each(secondary, func(s *sample) {
		wireHit = append(wireHit, float64(s.ns)/1e3)
		respKB = append(respKB, float64(s.aux)/1024)
	})
	cs := w.cols[secondary].CacheStats()
	dh, dm := float64(cs.Hits-w.hot0.Hits), float64(cs.Misses-w.hot0.Misses)
	m.set("store.hit_us_p50", median(hit), "us")
	m.set("store.cache_hit_ratio", dh/(dh+dm), "ratio")
	m.set("serve.hit_us_p50", median(wireHit), "us")
	m.set("serve.resp_kb_p50", median(respKB), "KB")
	m.set("serve.us_per_resp_kb", (median(wireHit)-median(hit))/median(respKB), "us/KB")
	m.set("serve.cold_ms_tail", rec.tail(primary, "serve.cold_ms_tail"), "ms")
	m.set("serve.hot_ms_tail", rec.tail(secondary, "serve.hot_ms_tail"), "ms")
}

// planner runs Auto on a third uncached collection, against the same
// skyline shapes under Hybrid in rung 2. No end-to-end metric moves
// with it today, because the clients name their algorithm.
func (w *serveMix) planner(rec *recorder, m metrics, skylineStore []float64) {
	auto, err := w.web.srv.Store().Attach("auto", w.ds, skybench.CollectionOptions{Shards: 2, CacheCapacity: -1})
	rec.check(err == nil, "attaching the auto collection: %v", err)
	if err != nil {
		return
	}
	const warm, measured = 32, 64
	var lat []float64
	explored := 0.0
	for i := 0; i < warm+measured; i++ {
		q := skybench.Query{Algorithm: skybench.Auto, Prefs: w.cold[i%12].prefs}
		start := time.Now()
		res, err := auto.Run(context.Background(), q)
		ms := float64(time.Since(start)) / 1e6
		rec.check(err == nil, "auto query: %v", err)
		if i < warm || err != nil {
			continue
		}
		lat = append(lat, ms)
		if res.Plan != nil && res.Plan.Explore {
			explored++
		}
	}
	m.set("planner.auto_over_hybrid", median(lat)/median(skylineStore), "ratio")
	m.set("planner.explore_frac", explored/measured, "ratio")
}

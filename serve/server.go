// Package serve exposes a skybench.Store over HTTP+JSON: the network
// half that turns the in-process serving facade (sharded exact-merge
// queries, epoch-keyed caching, typed failure taxonomy, durable stream
// collections) into a service.
//
// Endpoints (DESIGN.md §12 documents the wire shapes):
//
//	POST   /v1/collections/{name}/query        one query (full Query surface)
//	POST   /v1/collections/{name}/points       batch insert (group commit)
//	DELETE /v1/collections/{name}/points/{id}  delete one point by stream ID
//	GET    /v1/collections/{name}/deltas       entered/left events (SSE or NDJSON)
//	PUT    /v1/collections/{name}              attach (static file / stream dir)
//	DELETE /v1/collections/{name}              drop
//	GET    /v1/collections/{name}              collection info
//	GET    /v1/collections                     list collections
//	GET    /metrics                            Prometheus text format
//	GET    /healthz                            liveness
//
// Errors carry the same taxonomy the Go API has: every response maps a
// skybench sentinel error onto a status code and a stable wire code
// through the single table in statusForError, and serve/client maps the
// code back so errors.Is works across the network.
//
// A query response is a small per-request head plus the result's rows;
// the rows are encoded once per cached result and every later hit is
// answered with those bytes (writeQueryResponse). A client that lists
// application/x-skyband in Accept gets the rows as a flat binary frame
// (frame.go) instead of JSON.
//
// Per-request deadlines arrive in the X-Skybench-Deadline-Ms header and
// are mapped onto the query's context.Context, flowing through the same
// cancellation checkpoints in-process callers use. Delta subscriptions
// are fed from a bounded per-subscriber queue: a consumer too slow to
// keep up is disconnected rather than ever back-pressuring the index.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"skybench"
	"skybench/internal/dataset"
	"skybench/serve/metrics"
	"skybench/stream"
)

// defaultDeltaQueue is the per-subscriber event queue bound used when
// Options.DeltaQueue is zero.
const defaultDeltaQueue = 256

// dtBuckets is the bucket layout for the per-query dominance-test
// histogram: decade steps spanning a trivial query to a full quadratic
// recount on the largest supported inputs.
var dtBuckets = []float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// Options configures a Server.
type Options struct {
	// DeltaQueue bounds each delta subscriber's event queue: a
	// subscriber whose queue overflows is disconnected (the backpressure
	// rule — a slow consumer never blocks the index or its peers).
	// 0 selects defaultDeltaQueue.
	DeltaQueue int
	// Events, when non-nil, receives one NDJSON event per served
	// request (the SABRE-style log cmd/loadbench replays).
	Events *EventLog
	// SlowQuery, when > 0, is the slow-query threshold: every query is
	// traced server-side (skybench.Query.Trace is forced on, whether or
	// not the request asked for a trace back), and a query whose service
	// time reaches the threshold gets its full trace attached to its
	// event-log record. The response carries a trace only when the
	// request asked for one.
	SlowQuery time.Duration
	// AttachCluster, when non-nil, realizes wire attach requests that
	// carry a ClusterSpec: distribute the CSV across the spec's workers
	// and attach a coordinator-backed collection under name. skyserved's
	// coordinator mode installs the hook; without it cluster attach
	// requests are rejected. (The hook lives outside this package so
	// serve does not depend on the coordinator implementation.)
	AttachCluster func(name string, spec *ClusterSpec, opts skybench.CollectionOptions) error
}

// Server is the HTTP serving surface over one Store. Create with New,
// expose via its http.Handler implementation, and shut down with Drain
// (stop delta subscribers so http.Server.Shutdown can complete) then
// Close (close the Store, checkpointing durable collections).
type Server struct {
	st   *skybench.Store
	opts Options
	mux  *http.ServeMux

	done      chan struct{} // closed by Drain: long-lived handlers exit
	drainOnce sync.Once
	closeOnce sync.Once

	reg         *metrics.Registry
	reqs        *metrics.CounterVec   // {collection, endpoint}
	errs        *metrics.CounterVec   // {collection, code}
	lat         *metrics.HistogramVec // {collection, endpoint}
	subs        *metrics.GaugeVec     // {collection}
	subDrops    *metrics.CounterVec   // {collection}
	cacheHits   *metrics.GaugeVec     // {collection} — sampled at scrape
	cacheMisses *metrics.GaugeVec
	cacheSize   *metrics.GaugeVec
	bandAnswers *metrics.GaugeVec
	inflight    *metrics.GaugeVec
	points      *metrics.GaugeVec
	epoch       *metrics.GaugeVec
	storeInfl   *metrics.GaugeVec // no labels
	storeQueue  *metrics.GaugeVec

	// Engine cost telemetry, observed per executed (non-cache-hit) query.
	phaseDur *metrics.HistogramVec // {collection, phase}
	algoDur  *metrics.HistogramVec // {collection, algorithm}
	algoDTs  *metrics.HistogramVec // {collection, algorithm}

	// Durability gauges, sampled at scrape from CollectionStats.
	walFsyncs   *metrics.GaugeVec // {collection}
	walFsyncNs  *metrics.GaugeVec
	walSegments *metrics.GaugeVec
	checkpoints *metrics.GaugeVec
	checkpntNs  *metrics.GaugeVec

	// Go runtime gauges, sampled at scrape.
	goroutines *metrics.GaugeVec // no labels
	heapBytes  *metrics.GaugeVec
	gcCycles   *metrics.GaugeVec
	gcPauseNs  *metrics.GaugeVec

	// Cluster gauges, sampled at scrape from PlacementStats (lifetime
	// counters exported as gauges, matching the cache/durability idiom).
	clWorkers  *metrics.GaugeVec // {collection}
	clPartials *metrics.GaugeVec // {collection}
	clUp       *metrics.GaugeVec // {collection, worker}
	clRows     *metrics.GaugeVec
	clQueries  *metrics.GaugeVec
	clFailures *metrics.GaugeVec
	clRetries  *metrics.GaugeVec

	mu      sync.Mutex
	streams map[string]*stream.SkylineIndex // mutable collections by name
}

// New creates a Server over st. The Store stays owned by the Server
// from here on: Close closes it.
func New(st *skybench.Store, opts Options) *Server {
	if opts.DeltaQueue <= 0 {
		opts.DeltaQueue = defaultDeltaQueue
	}
	s := &Server{
		st:      st,
		opts:    opts,
		done:    make(chan struct{}),
		reg:     metrics.NewRegistry(),
		streams: make(map[string]*stream.SkylineIndex),
	}
	r := s.reg
	s.reqs = r.NewCounterVec("skyserved_requests_total", "Requests served, by collection and endpoint.", "collection", "endpoint")
	s.errs = r.NewCounterVec("skyserved_errors_total", "Error responses, by collection and wire error code.", "collection", "code")
	s.lat = r.NewHistogramVec("skyserved_request_duration_seconds", "Request service time in seconds.", nil, "collection", "endpoint")
	s.subs = r.NewGaugeVec("skyserved_delta_subscribers", "Live delta subscribers.", "collection")
	s.subDrops = r.NewCounterVec("skyserved_delta_dropped_total", "Delta subscribers disconnected for falling behind.", "collection")
	s.cacheHits = r.NewGaugeVec("skyserved_cache_hits", "Result-cache hits (lifetime, sampled at scrape).", "collection")
	s.cacheMisses = r.NewGaugeVec("skyserved_cache_misses", "Result-cache misses (lifetime, sampled at scrape).", "collection")
	s.cacheSize = r.NewGaugeVec("skyserved_cache_entries", "Cached results at scrape time.", "collection")
	s.bandAnswers = r.NewGaugeVec("skyserved_band_answers", "Queries answered from the stream index's maintained band, no engine run (lifetime, sampled at scrape).", "collection")
	s.inflight = r.NewGaugeVec("skyserved_collection_inflight", "Queries executing at scrape time.", "collection")
	s.points = r.NewGaugeVec("skyserved_collection_points", "Live points at scrape time.", "collection")
	s.epoch = r.NewGaugeVec("skyserved_collection_epoch", "Membership epoch at scrape time.", "collection")
	s.storeInfl = r.NewGaugeVec("skyserved_store_inflight", "Queries holding an admission slot.")
	s.storeQueue = r.NewGaugeVec("skyserved_store_queue_depth", "Queries waiting for an admission slot.")
	s.phaseDur = r.NewHistogramVec("skyserved_query_phase_seconds", "Engine time per execution phase, executed queries only.", nil, "collection", "phase")
	s.algoDur = r.NewHistogramVec("skyserved_query_algorithm_seconds", "Engine service time by algorithm, executed queries only.", nil, "collection", "algorithm")
	s.algoDTs = r.NewHistogramVec("skyserved_query_dominance_tests", "Dominance tests per executed query, by algorithm.", dtBuckets, "collection", "algorithm")
	s.walFsyncs = r.NewGaugeVec("skyserved_wal_fsyncs", "WAL fsyncs (lifetime, sampled at scrape).", "collection")
	s.walFsyncNs = r.NewGaugeVec("skyserved_wal_fsync_nanoseconds", "Total time in WAL fsyncs (lifetime, sampled at scrape).", "collection")
	s.walSegments = r.NewGaugeVec("skyserved_wal_segments", "Live WAL segment files at scrape time.", "collection")
	s.checkpoints = r.NewGaugeVec("skyserved_checkpoints", "Checkpoints written (lifetime, sampled at scrape).", "collection")
	s.checkpntNs = r.NewGaugeVec("skyserved_checkpoint_nanoseconds", "Total time writing checkpoints (lifetime, sampled at scrape).", "collection")
	s.goroutines = r.NewGaugeVec("skyserved_goroutines", "Goroutines at scrape time.")
	s.heapBytes = r.NewGaugeVec("skyserved_heap_alloc_bytes", "Heap bytes allocated and in use at scrape time.")
	s.gcCycles = r.NewGaugeVec("skyserved_gc_cycles", "Completed GC cycles at scrape time.")
	s.gcPauseNs = r.NewGaugeVec("skyserved_gc_pause_nanoseconds", "Cumulative GC stop-the-world pause at scrape time.")
	s.clWorkers = r.NewGaugeVec("skyserved_cluster_workers", "Placed cluster workers at scrape time.", "collection")
	s.clPartials = r.NewGaugeVec("skyserved_cluster_partial_results", "Partial (degraded) cluster answers served (lifetime, sampled at scrape).", "collection")
	s.clUp = r.NewGaugeVec("skyserved_cluster_worker_up", "1 when the worker's last health probe succeeded.", "collection", "worker")
	s.clRows = r.NewGaugeVec("skyserved_cluster_worker_rows", "Rows placed on the worker.", "collection", "worker")
	s.clQueries = r.NewGaugeVec("skyserved_cluster_worker_queries", "Fan-out calls sent to the worker (lifetime, sampled at scrape).", "collection", "worker")
	s.clFailures = r.NewGaugeVec("skyserved_cluster_worker_failures", "Fan-out calls the worker failed (lifetime, sampled at scrape).", "collection", "worker")
	s.clRetries = r.NewGaugeVec("skyserved_cluster_worker_retries", "Transport retries toward the worker (lifetime, sampled at scrape).", "collection", "worker")

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/collections/{name}/query", s.instrument("query", s.handleQuery))
	mux.HandleFunc("POST /v1/collections/{name}/points", s.instrument("insert", s.handleInsert))
	mux.HandleFunc("DELETE /v1/collections/{name}/points/{id}", s.instrument("delete", s.handleDeletePoint))
	mux.HandleFunc("GET /v1/collections/{name}/deltas", s.instrument("deltas", s.handleDeltas))
	mux.HandleFunc("PUT /v1/collections/{name}", s.instrument("attach", s.handleAttach))
	mux.HandleFunc("DELETE /v1/collections/{name}", s.instrument("drop", s.handleDrop))
	mux.HandleFunc("GET /v1/collections/{name}", s.instrument("info", s.handleInfo))
	mux.HandleFunc("GET /v1/collections", s.instrument("list", s.handleList))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-s.done: // draining: tell load balancers to stop routing here
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
		default:
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, "ok\n")
		}
	})
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Store returns the served Store (for embedding applications that
// attach collections directly).
func (s *Server) Store() *skybench.Store { return s.st }

// Drain begins graceful shutdown: delta subscriptions and other
// long-lived handlers are told to finish, so a subsequent
// http.Server.Shutdown — which waits for every active handler — can
// drain the in-flight request queue and complete. Idempotent.
func (s *Server) Drain() {
	s.drainOnce.Do(func() { close(s.done) })
}

// Close finishes shutdown: Drain, then close the Store — which drops
// every collection and, for durable stream collections it owns, takes a
// final checkpoint and closes the WAL so a restart recovers without
// replay. Call after http.Server.Shutdown has returned (queries still
// executing must have finished). Idempotent.
func (s *Server) Close() {
	s.Drain()
	s.closeOnce.Do(func() { s.st.Close() })
}

// --- collection management ----------------------------------------------

// AttachStaticFile loads a headerless CSV file and attaches it as an
// immutable collection.
func (s *Server) AttachStaticFile(name, path string, opts skybench.CollectionOptions) (*skybench.Collection, error) {
	m, err := dataset.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: reading %s: %v", skybench.ErrBadDataset, path, err)
	}
	ds, err := skybench.DatasetFromFlat(m.Flat(), m.N(), m.D())
	if err != nil {
		return nil, err
	}
	return s.st.Attach(name, ds, opts)
}

// attachStreamIndex attaches a live SkylineIndex as a mutable
// collection the server owns: it routes point inserts/deletes and delta
// subscriptions for name to it, and the index is closed when the
// collection is dropped or the Store closes.
func (s *Server) attachStreamIndex(name string, ix *stream.SkylineIndex, opts skybench.CollectionOptions) (*skybench.Collection, error) {
	opts.CloseOnDrop = true
	col, err := s.st.AttachStream(name, ix, opts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.streams[name] = ix
	s.mu.Unlock()
	return col, nil
}

// AttachDurable attaches a durable stream collection from dir: existing
// state is recovered (stream.Recover, so d may be zero — the directory
// knows its own shape); a directory with no state is refused unless
// create is set, in which case a fresh d-dimensional durable index is
// created there (cfg.Durable supplies the WAL policy; its Dir may be
// empty). The server owns the result either way — dropping the
// collection or closing the Store checkpoints and closes the WAL.
func (s *Server) AttachDurable(name, dir string, create bool, d int, cfg stream.Config, opts skybench.CollectionOptions) (*skybench.Collection, error) {
	var ix *stream.SkylineIndex
	var err error
	if stream.HasState(dir) {
		ix, err = stream.Recover(dir, cfg)
	} else if create {
		if d < 1 {
			return nil, fmt.Errorf("%w: creating a durable collection needs a dimensionality", skybench.ErrBadQuery)
		}
		if cfg.Durable == nil {
			cfg.Durable = &stream.Durability{}
		}
		cfg.Durable.Dir = dir
		ix, err = stream.New(d, cfg)
	} else {
		return nil, fmt.Errorf("%w: no durable stream state in %q (set create to initialize one)", skybench.ErrBadDataset, dir)
	}
	if err != nil {
		return nil, err
	}
	col, err := s.attachStreamIndex(name, ix, opts)
	if err != nil {
		ix.Close()
		return nil, err
	}
	return col, nil
}

// drop detaches the named collection and forgets its stream routing.
func (s *Server) drop(name string) error {
	if err := s.st.Drop(name); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.streams, name)
	s.mu.Unlock()
	return nil
}

// streamIndex returns the mutable index serving name, or nil.
func (s *Server) streamIndex(name string) *stream.SkylineIndex {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streams[name]
}

// --- request plumbing ----------------------------------------------------

// observation carries one request's outcome from its handler to the
// instrumentation wrapper.
type observation struct {
	collection  string
	status      int
	code        string
	fingerprint string
	algorithm   string
	cacheHit    bool
	trace       *skybench.QueryTrace // for the slow-query log, when traced
}

// instrument wraps a handler with metrics and event logging: request
// and error counters, the latency histogram, and one event-log line per
// request.
func (s *Server) instrument(endpoint string, fn func(http.ResponseWriter, *http.Request, *observation)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		obs := &observation{collection: r.PathValue("name"), status: http.StatusOK}
		start := time.Now()
		fn(w, r, obs)
		elapsed := time.Since(start)
		s.reqs.With(obs.collection, endpoint).Inc()
		if obs.code != "" {
			s.errs.With(obs.collection, obs.code).Inc()
		}
		s.lat.With(obs.collection, endpoint).Observe(elapsed.Seconds())
		ev := event{
			Collection:  obs.collection,
			Endpoint:    endpoint,
			Fingerprint: obs.fingerprint,
			Algorithm:   obs.algorithm,
			Status:      obs.status,
			Code:        obs.code,
			LatencyNs:   elapsed.Nanoseconds(),
			CacheHit:    obs.cacheHit,
		}
		// The slow-query log: a query at or over the threshold carries
		// its full trace (present on obs because SlowQuery forces
		// tracing), so the event line alone explains where the time went.
		if s.opts.SlowQuery > 0 && elapsed >= s.opts.SlowQuery {
			ev.Trace = obs.trace
		}
		s.opts.Events.log(ev)
	}
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps err through the error table and writes the error
// body, recording status and code on the observation.
func writeError(w http.ResponseWriter, obs *observation, err error) {
	status, code := statusForError(err)
	obs.status, obs.code = status, code
	writeJSON(w, status, ErrorBody{Error: ErrorInfo{Code: code, Message: err.Error()}})
}

// decodeJSON decodes the request body into v; an empty body leaves v at
// its zero value.
func decodeJSON(r *http.Request, v any) error {
	if r.Body == nil {
		return nil
	}
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil || errors.Is(err, io.EOF) {
		return nil
	}
	return fmt.Errorf("%w: malformed JSON body: %v", skybench.ErrBadQuery, err)
}

// requestCtx applies the wire deadline header, when present, to the
// request context.
func requestCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	h := r.Header.Get(DeadlineHeader)
	if h == "" {
		return ctx, func() {}, nil
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 {
		return nil, nil, fmt.Errorf("%w: header %s=%q (want a positive integer of milliseconds)", skybench.ErrBadQuery, DeadlineHeader, h)
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
	return ctx, cancel, nil
}

// --- handlers ------------------------------------------------------------

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, obs *observation) {
	name := r.PathValue("name")
	col, err := s.st.Collection(name)
	if err != nil {
		writeError(w, obs, err)
		return
	}
	var req QueryRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, obs, err)
		return
	}
	obs.fingerprint = queryFingerprint(&req)
	q, err := toQuery(&req)
	if err != nil {
		writeError(w, obs, err)
		return
	}
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		writeError(w, obs, err)
		return
	}
	defer cancel()
	obs.algorithm = q.Algorithm.String()
	// Under a slow-query threshold every query is traced server-side so
	// a slow one can be explained after the fact; the response still
	// only carries a trace when the request asked for one.
	if s.opts.SlowQuery > 0 {
		q.Trace = true
	}
	// Run passes the Store's admission control, so MaxInflight/MaxQueue
	// overload comes back as an immediate 429 and the server cannot
	// oversubscribe the engine; a panic comes back as ErrQueryPanic.
	res, err := col.Run(ctx, q)
	if err != nil {
		writeError(w, obs, err)
		return
	}
	obs.cacheHit = res.CacheHit
	obs.trace = res.Trace
	if res.Plan != nil {
		// An "auto" query ran as a concrete algorithm: attribute the
		// engine cost (and the event-log record) to it, not to "auto".
		obs.algorithm = res.Plan.Algorithm
	}
	// A band answer ran on no thread and made no dominance test; every
	// engine run reports ≥ 1 thread, and a remote backend's merge, which
	// may report none, counts its tests.
	if band := res.Stats.Threads == 0 && res.Stats.DominanceTests == 0; !obs.cacheHit && !band {
		s.observeQueryCost(name, obs.algorithm, &res.Stats)
	}
	if err := writeQueryResponse(w, acceptsFrame(r), name, res, &req); err != nil {
		writeError(w, obs, err)
	}
}

// observeQueryCost books one executed query's engine cost into the
// per-phase and per-algorithm histogram families. Cache hits and band
// answers are not observed — they did no engine work, and a cache hit's
// stats describe the original execution, not this request;
// skyserved_band_answers counts band answers instead.
func (s *Server) observeQueryCost(collection, algorithm string, st *skybench.Stats) {
	s.algoDur.With(collection, algorithm).Observe(st.Elapsed.Seconds())
	s.algoDTs.With(collection, algorithm).Observe(float64(st.DominanceTests))
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"init", st.Timings.Init},
		{"prefilter", st.Timings.Prefilter},
		{"pivot", st.Timings.Pivot},
		{"phase1", st.Timings.PhaseOne},
		{"phase2", st.Timings.PhaseTwo},
		{"compress", st.Timings.Compress},
		{"other", st.Timings.Other},
	} {
		if ph.d > 0 {
			s.phaseDur.With(collection, ph.name).Observe(ph.d.Seconds())
		}
	}
}

// acceptsFrame reports whether the request's Accept header lists the
// binary result frame. Quality values are not weighed: the one client
// that sends the type prefers it.
func acceptsFrame(r *http.Request) bool {
	for _, h := range r.Header.Values("Accept") {
		for _, element := range strings.Split(h, ",") {
			if IsFrameType(element) {
				return true
			}
		}
	}
	return false
}

// payloadSlot numbers the encodings of one result's rows that are worth
// keeping: wire format × omitValues, the four slots a cached QueryResult
// carries.
func payloadSlot(frame, omitValues bool) int {
	slot := 0
	if frame {
		slot = 2
	}
	if omitValues {
		slot++
	}
	return slot
}

// writeQueryResponse answers a query: the per-request head, then the row
// payload, with Content-Length, in two Writes. The payload of an uncut
// answer is a pure function of the immutable result, so it is memoised
// on the result (QueryResult.PublishPayload): a cache hit finds the bytes
// an earlier request encoded and builds nothing but the head. A Top cut
// is at most Top rows and depends on the request; it is encoded each
// time. An error is returned only before anything has been written.
func writeQueryResponse(w http.ResponseWriter, frame bool, name string, res *skybench.QueryResult, req *QueryRequest) error {
	pos := topCut(res, req.Top)
	head := QueryHead{
		Collection: name,
		Epoch:      res.Epoch,
		Stale:      res.Stale,
		Partial:    res.Partial,
		Count:      res.Len(),
		Stats: QueryStats{
			DominanceTests: res.Stats.DominanceTests,
			InputSize:      res.Stats.InputSize,
			Threads:        res.Stats.Threads,
			ElapsedNs:      res.Stats.Elapsed.Nanoseconds(),
		},
		Planner: res.Plan,
	}
	if pos != nil {
		head.Count = len(pos)
	}
	if req.Trace {
		head.Trace = res.Trace
	}
	if frame {
		d := 0
		if !req.OmitValues && head.Count > 0 {
			d = len(res.Row(0))
		}
		frame = frameFits(uint64(head.Count), uint64(d)) // an answer too large to frame goes out as JSON
	}

	var payload []byte
	var err error
	if pos != nil {
		payload, err = encodeRows(frame, buildRows(res, pos, req.OmitValues))
	} else {
		slot := payloadSlot(frame, req.OmitValues)
		if payload = res.Payload(slot); payload == nil {
			if payload, err = encodeRows(frame, buildRows(res, nil, req.OmitValues)); err == nil {
				payload = res.PublishPayload(slot, payload)
			}
		}
	}
	if err != nil {
		return err
	}
	hb, ctype, err := encodeHead(frame, &head)
	if err != nil {
		return err
	}
	h := w.Header()
	h.Set("Content-Type", ctype)
	h.Set("Content-Length", strconv.Itoa(len(hb)+len(payload)))
	_, _ = w.Write(hb)
	_, _ = w.Write(payload)
	return nil
}

// encodeHead renders the per-request part of a response: a frame's head
// section, or a JSON object left open for the rows to continue.
func encodeHead(frame bool, head *QueryHead) ([]byte, string, error) {
	if frame {
		b, err := appendHeadFrame(nil, head)
		return b, FrameContentType, err
	}
	js, err := json.Marshal(head)
	if err != nil {
		return nil, "", err
	}
	return js[:len(js)-1], "application/json", nil
}

// encodeRows renders a row payload: a frame's shape and array sections,
// or the JSON members that continue the object encodeHead left open and
// close it — head and rows are then, byte for byte, the QueryResponse
// encoding/json would have produced in one piece.
func encodeRows(frame bool, rows *QueryRows) ([]byte, error) {
	if frame {
		return appendRowsFrame(nil, rows)
	}
	js, err := json.Marshal(rows)
	if err != nil {
		return nil, err
	}
	js[0] = ',' // "indices" has no omitempty: the object is never empty
	return append(js, '\n'), nil
}

// topCut returns the result positions a request's Top keeps — the Top
// points with the fewest dominators, ties by ascending row index, as
// Result.TopK ranks them — or nil when Top cuts nothing.
func topCut(res *skybench.QueryResult, top int) []int {
	n := res.Len()
	if top <= 0 || top >= n {
		return nil
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	sort.Slice(pos, func(a, b int) bool {
		if res.Counts != nil && res.Counts[pos[a]] != res.Counts[pos[b]] {
			return res.Counts[pos[a]] < res.Counts[pos[b]]
		}
		return res.Indices[pos[a]] < res.Indices[pos[b]]
	})
	return pos[:top]
}

// buildRows gathers the row payload of a result: the positions in pos,
// or every position in result order when pos is nil. The uncut arrays
// alias the result's own (read-only here, as everywhere).
func buildRows(res *skybench.QueryResult, pos []int, omitValues bool) *QueryRows {
	n := res.Len()
	rows := &QueryRows{Indices: res.Indices, Counts: res.Counts}
	at := func(i int) int { return i }
	if pos != nil {
		n = len(pos)
		at = func(i int) int { return pos[i] }
		rows.Indices = make([]int, n)
		for i, p := range pos {
			rows.Indices[i] = res.Indices[p]
		}
		if res.Counts != nil {
			rows.Counts = make([]int32, n)
			for i, p := range pos {
				rows.Counts[i] = res.Counts[p]
			}
		}
	}
	if rows.Indices == nil {
		rows.Indices = []int{} // "indices": [], never null
	}
	if n == 0 {
		return rows
	}
	if _, ok := res.ID(at(0)); ok {
		rows.IDs = make([]uint64, n)
		for i := range rows.IDs {
			rows.IDs[i], _ = res.ID(at(i))
		}
	}
	if !omitValues {
		rows.Values = make([][]float64, n)
		for i := range rows.Values {
			rows.Values[i] = res.Row(at(i))
		}
	}
	return rows
}

// mutableIndex resolves the stream index serving name, distinguishing
// "unknown collection" from "not mutable over the wire".
func (s *Server) mutableIndex(name string) (*stream.SkylineIndex, error) {
	if ix := s.streamIndex(name); ix != nil {
		return ix, nil
	}
	if _, err := s.st.Collection(name); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%w: collection %q is not mutable over the wire (static, or stream-attached outside the server)", skybench.ErrBadQuery, name)
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request, obs *observation) {
	name := r.PathValue("name")
	ix, err := s.mutableIndex(name)
	if err != nil {
		writeError(w, obs, err)
		return
	}
	var req InsertRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, obs, err)
		return
	}
	if len(req.Points) == 0 {
		writeError(w, obs, fmt.Errorf("%w: empty points batch", skybench.ErrBadQuery))
		return
	}
	ids, err := ix.InsertBatch(req.Points)
	if err != nil {
		writeError(w, obs, err)
		return
	}
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	writeJSON(w, http.StatusOK, InsertResponse{IDs: out})
}

func (s *Server) handleDeletePoint(w http.ResponseWriter, r *http.Request, obs *observation) {
	name := r.PathValue("name")
	ix, err := s.mutableIndex(name)
	if err != nil {
		writeError(w, obs, err)
		return
	}
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, obs, fmt.Errorf("%w: point id %q", skybench.ErrBadQuery, r.PathValue("id")))
		return
	}
	if !ix.Delete(stream.ID(id)) {
		// A false return is either "not live" or, on a durable index, a
		// rejected mutation (WAL append failure) with the point still
		// live — Err plus liveness disambiguates.
		if err := ix.Err(); err != nil && ix.Contains(stream.ID(id)) {
			writeError(w, obs, err)
			return
		}
		writeError(w, obs, fmt.Errorf("%w: %d in collection %q", ErrUnknownPoint, id, name))
		return
	}
	writeJSON(w, http.StatusOK, deleteResponse{Deleted: true})
}

func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request, obs *observation) {
	name := r.PathValue("name")
	var req AttachRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, obs, err)
		return
	}
	backings := 0
	for _, set := range []bool{req.Static != nil, req.Stream != nil, req.Cluster != nil} {
		if set {
			backings++
		}
	}
	if backings != 1 {
		writeError(w, obs, fmt.Errorf("%w: attach body needs exactly one of static, stream, or cluster", skybench.ErrBadQuery))
		return
	}
	opts := skybench.CollectionOptions{
		CacheCapacity:  req.CacheCapacity,
		DefaultTimeout: time.Duration(req.DefaultTimeoutMs) * time.Millisecond,
	}
	var err error
	switch {
	case req.Static != nil:
		_, err = s.AttachStaticFile(name, req.Static.Path, opts)
	case req.Stream != nil:
		err = s.attachStreamSpec(name, req.Stream, opts)
	default:
		if s.opts.AttachCluster == nil {
			err = fmt.Errorf("%w: this server is not running in coordinator mode (no cluster attach hook)", skybench.ErrBadQuery)
		} else {
			err = s.opts.AttachCluster(name, req.Cluster, opts)
		}
	}
	if err != nil {
		writeError(w, obs, err)
		return
	}
	info, err := s.collectionInfo(name)
	if err != nil {
		writeError(w, obs, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// attachStreamSpec realizes a StreamSpec: recover/create a durable
// index, or create an in-memory one.
func (s *Server) attachStreamSpec(name string, spec *StreamSpec, opts skybench.CollectionOptions) error {
	prefs, err := prefsFromWire(spec.Prefs)
	if err != nil {
		return err
	}
	cfg := stream.Config{Prefs: prefs, SkybandK: spec.SkybandK}
	if spec.Dir == "" {
		if spec.D < 1 {
			return fmt.Errorf("%w: an in-memory stream collection needs a dimensionality", skybench.ErrBadQuery)
		}
		ix, err := stream.New(spec.D, cfg)
		if err != nil {
			return err
		}
		if _, err := s.attachStreamIndex(name, ix, opts); err != nil {
			ix.Close()
			return err
		}
		return nil
	}
	dur := &stream.Durability{Dir: spec.Dir, CheckpointEvery: spec.CheckpointEvery}
	switch spec.Fsync {
	case "", "os":
		dur.Fsync = stream.FsyncOS
	case "always":
		dur.Fsync = stream.FsyncAlways
	case "interval":
		dur.Fsync = stream.FsyncInterval
	default:
		return fmt.Errorf("%w: fsync %q (want os|always|interval)", skybench.ErrBadQuery, spec.Fsync)
	}
	cfg.Durable = dur
	_, err = s.AttachDurable(name, spec.Dir, spec.Create, spec.D, cfg, opts)
	return err
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request, obs *observation) {
	name := r.PathValue("name")
	if err := s.drop(name); err != nil {
		writeError(w, obs, err)
		return
	}
	writeJSON(w, http.StatusOK, dropResponse{Dropped: true})
}

// collectionInfo builds the wire description of one collection.
func (s *Server) collectionInfo(name string) (CollectionInfo, error) {
	col, err := s.st.Collection(name)
	if err != nil {
		return CollectionInfo{}, err
	}
	cs, err := col.Stats()
	if err != nil {
		return CollectionInfo{}, err
	}
	info := CollectionInfo{
		Name:         cs.Name,
		N:            cs.N,
		D:            cs.D,
		Epoch:        cs.Epoch,
		StreamBacked: cs.StreamBacked,
		Inflight:     cs.Inflight,
		Cache:        cs.Cache,
		Subscribers:  s.subs.With(name).Value(),
		BandAnswers:  cs.BandAnswers,
		Durability:   cs.Durability,
		Cluster:      cs.Placement,
	}
	if ix := s.streamIndex(name); ix != nil {
		info.Durable = ix.Durable()
	}
	return info, nil
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request, obs *observation) {
	info, err := s.collectionInfo(r.PathValue("name"))
	if err != nil {
		writeError(w, obs, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request, obs *observation) {
	names := s.st.Names() // sorted — the listing order is part of the API
	list := CollectionList{Collections: make([]CollectionInfo, 0, len(names))}
	for _, name := range names {
		info, err := s.collectionInfo(name)
		if err != nil {
			continue // dropped between Names and here
		}
		list.Collections = append(list.Collections, info)
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Refresh the scrape-time gauges from the Store before rendering.
	for _, name := range s.st.Names() {
		col, err := s.st.Collection(name)
		if err != nil {
			continue
		}
		cs, err := col.Stats()
		if err != nil {
			continue
		}
		s.cacheHits.With(name).Set(int64(cs.Cache.Hits))
		s.cacheMisses.With(name).Set(int64(cs.Cache.Misses))
		s.cacheSize.With(name).Set(int64(cs.Cache.Entries))
		s.bandAnswers.With(name).Set(int64(cs.BandAnswers))
		s.inflight.With(name).Set(cs.Inflight)
		s.points.With(name).Set(int64(cs.N))
		s.epoch.With(name).Set(int64(cs.Epoch))
		if pl := cs.Placement; pl != nil {
			s.clWorkers.With(name).Set(int64(len(pl.Workers)))
			s.clPartials.With(name).Set(int64(pl.Partials))
			for i, wp := range pl.Workers {
				wl := strconv.Itoa(i)
				up := int64(0)
				if wp.Healthy {
					up = 1
				}
				s.clUp.With(name, wl).Set(up)
				s.clRows.With(name, wl).Set(int64(wp.Hi - wp.Lo))
				s.clQueries.With(name, wl).Set(int64(wp.Queries))
				s.clFailures.With(name, wl).Set(int64(wp.Failures))
				s.clRetries.With(name, wl).Set(int64(wp.Retries))
			}
		}
		if ds := cs.Durability; ds != nil {
			s.walFsyncs.With(name).Set(int64(ds.WALFsyncs))
			s.walFsyncNs.With(name).Set(ds.WALFsyncTime.Nanoseconds())
			s.walSegments.With(name).Set(int64(ds.WALSegments))
			s.checkpoints.With(name).Set(int64(ds.Checkpoints))
			s.checkpntNs.With(name).Set(ds.CheckpointTime.Nanoseconds())
		}
	}
	s.storeInfl.With().Set(int64(s.st.Inflight()))
	s.storeQueue.With().Set(int64(s.st.QueueDepth()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.goroutines.With().Set(int64(runtime.NumGoroutine()))
	s.heapBytes.With().Set(int64(ms.HeapAlloc))
	s.gcCycles.With().Set(int64(ms.NumGC))
	s.gcPauseNs.With().Set(int64(ms.PauseTotalNs))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WriteText(w)
}

// Wire protocol: the JSON shapes skyserved speaks and the single
// error-mapping table between the skybench sentinel errors and HTTP
// status codes. serve/client shares these types, so the Go client and
// the server can never disagree about a field name. frame.go is the
// binary encoding of a query response's rows; DESIGN.md §12 documents
// the protocol.
package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"

	"skybench"
)

// DeadlineHeader carries a per-request deadline in integer
// milliseconds. The server maps it onto the query's context.Context, so
// it flows through the same cancellation checkpoints as a native
// context deadline and a missed deadline comes back as 504.
const DeadlineHeader = "X-Skybench-Deadline-Ms"

// ErrUnknownPoint reports a point-delete for an ID that is not live in
// the collection — the one serving-layer error class that has no
// skybench sentinel (the Go API returns a bool there).
var ErrUnknownPoint = errors.New("serve: unknown point id")

// QueryRequest is the body of POST /v1/collections/{name}/query. The
// zero value (or an empty body) runs the default query: Hybrid,
// minimize every dimension, plain skyline.
type QueryRequest struct {
	// Algorithm names the algorithm ("hybrid", "qflow", ...; default
	// hybrid), exactly as skybench.ParseAlgorithm accepts.
	Algorithm string `json:"algorithm,omitempty"`
	// Prefs holds one per-dimension preference, "min", "max", or
	// "ignore"; empty minimizes every dimension.
	Prefs []string `json:"prefs,omitempty"`
	// SkybandK generalizes the query to the k-skyband, as
	// skybench.Query.SkybandK.
	SkybandK int `json:"skybandK,omitempty"`
	// Top, when > 0, returns only the Top result points with the fewest
	// dominators (ties broken by ascending row index) — the wire form of
	// Result.TopK. A cut response comes back in that order; a Top at or
	// past the result size cuts nothing and keeps the result's order.
	Top int `json:"top,omitempty"`
	// Alpha, Beta, Pivot, and Seed override the algorithm's tuning
	// parameters, as the corresponding skybench.Query fields.
	Alpha int    `json:"alpha,omitempty"`
	Beta  int    `json:"beta,omitempty"`
	Pivot string `json:"pivot,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	// AllowStale opts into graceful degradation, as
	// skybench.Query.AllowStale: on overload or a missed deadline the
	// last cached result for this query shape is served with
	// "stale": true instead of a 429/504.
	AllowStale bool `json:"allowStale,omitempty"`
	// OmitValues drops the per-point coordinate arrays from the
	// response — indices, IDs, and counts only — for callers that keep
	// their own copy of the data.
	OmitValues bool `json:"omitValues,omitempty"`
	// Trace requests an EXPLAIN ANALYZE-style execution trace in the
	// response (skybench.Query.Trace). A delivery option: it never
	// changes what is computed or cached, and is excluded from the query
	// fingerprint.
	Trace bool `json:"trace,omitempty"`
}

// QueryStats is the measurement block of a QueryResponse.
type QueryStats struct {
	DominanceTests uint64 `json:"dominanceTests"`
	InputSize      int    `json:"inputSize"`
	Threads        int    `json:"threads"`
	ElapsedNs      int64  `json:"elapsedNs"`
}

// QueryResponse is the result of one query. On the wire it is two
// parts (DESIGN.md §12): a small head that differs from request to
// request, then the rows, which are immutable for their epoch and which
// the server therefore encodes once per cached result. The JSON body is
// one object, the head's keys followed by the rows'; the binary frame
// (frame.go) carries the same two parts.
type QueryResponse struct {
	QueryHead
	QueryRows
}

// QueryHead is the per-request part of a QueryResponse.
type QueryHead struct {
	Collection string `json:"collection"`
	// Epoch is the membership epoch the result answers for; Stale marks
	// a graceful-degradation answer from an earlier epoch.
	Epoch uint64 `json:"epoch"`
	Stale bool   `json:"stale,omitempty"`
	// Partial marks a degraded cluster answer: one or more workers
	// failed and the collection's partial policy merged the rest, so
	// the rows placed on the failed workers are missing. Never set for
	// local collections.
	Partial bool `json:"partial,omitempty"`
	// Count is the number of result points.
	Count int        `json:"count"`
	Stats QueryStats `json:"stats"`
	// Trace is the execution trace, present only when the request set
	// trace. skybench.QueryTrace marshals durations as integer
	// nanoseconds, so the trace round-trips the wire exactly.
	Trace *skybench.QueryTrace `json:"trace,omitempty"`
	// Planner records what an algorithm "auto" request ran as
	// (skybench.QueryResult.Plan), present only for those requests,
	// traced or not.
	Planner *skybench.PlannerTrace `json:"planner,omitempty"`
}

// QueryRows is the row payload of a QueryResponse, parallel arrays over
// the result points. Indices are snapshot row positions (the stable
// handle for static collections); IDs are the stream IDs of the same
// points, present only for stream-backed collections. Counts are
// per-point dominator counts, present only for k-skyband queries; Values
// the per-point coordinates unless the request set omitValues.
type QueryRows struct {
	Indices []int       `json:"indices"`
	IDs     []uint64    `json:"ids,omitempty"`
	Counts  []int32     `json:"counts,omitempty"`
	Values  [][]float64 `json:"values,omitempty"`
}

// InsertRequest is the body of POST /v1/collections/{name}/points: a
// batch of points, inserted atomically through the index's group-commit
// path (one fsync per batch on a durable collection).
type InsertRequest struct {
	Points [][]float64 `json:"points"`
}

// InsertResponse returns the assigned stream IDs, in input order.
type InsertResponse struct {
	IDs []uint64 `json:"ids"`
}

// deleteResponse acknowledges DELETE .../points/{id}.
type deleteResponse struct {
	Deleted bool `json:"deleted"`
}

// dropResponse acknowledges DELETE /v1/collections/{name}.
type dropResponse struct {
	Dropped bool `json:"dropped"`
}

// CollectionInfo describes one collection (GET /v1/collections and
// GET /v1/collections/{name}). The stats blocks are the canonical
// skybench types, which carry the wire's JSON tags themselves.
type CollectionInfo struct {
	Name         string              `json:"name"`
	N            int                 `json:"n"`
	D            int                 `json:"d"`
	Epoch        uint64              `json:"epoch"`
	StreamBacked bool                `json:"streamBacked"`
	Durable      bool                `json:"durable,omitempty"`
	Inflight     int64               `json:"inflight"`
	Cache        skybench.CacheStats `json:"cache"`
	Subscribers  int64               `json:"subscribers,omitempty"`
	// BandAnswers counts the queries a stream collection answered by
	// reading the band its index maintains instead of running an engine
	// (skybench.CollectionStats.BandAnswers); the query histograms book
	// none of them.
	BandAnswers uint64 `json:"bandAnswers,omitempty"`
	// Durability carries WAL and checkpoint counters for durable
	// stream collections; absent otherwise.
	Durability *skybench.DurabilityStats `json:"durability,omitempty"`
	// Cluster carries the worker placement and fan-out counters of a
	// cluster-backed collection; absent for local ones.
	Cluster *skybench.PlacementStats `json:"cluster,omitempty"`
}

// CollectionList is the body of GET /v1/collections, sorted by name.
type CollectionList struct {
	Collections []CollectionInfo `json:"collections"`
}

// StaticSpec attaches an immutable collection from a headerless CSV
// file on the server's filesystem.
type StaticSpec struct {
	Path string `json:"path"`
}

// StreamSpec attaches a live stream-backed collection. With Dir set the
// directory's durable state is recovered (stream.Recover) — or, when it
// holds none and Create is set, a fresh durable index is created there.
// Without Dir an in-memory index is created. D is required when
// creating; recovery adopts the directory's recorded shape and rejects
// a conflicting one.
type StreamSpec struct {
	Dir      string   `json:"dir,omitempty"`
	Create   bool     `json:"create,omitempty"`
	D        int      `json:"d,omitempty"`
	SkybandK int      `json:"skybandK,omitempty"`
	Prefs    []string `json:"prefs,omitempty"`
	// Fsync is the WAL policy for durable indexes: "os" (default),
	// "always", or "interval".
	Fsync string `json:"fsync,omitempty"`
	// CheckpointEvery is the checkpoint cadence in applied records
	// (0 = default, negative = manual only).
	CheckpointEvery int `json:"checkpointEvery,omitempty"`
}

// ClusterSpec attaches a cluster-backed collection: the server splits
// the CSV at Path into one contiguous shard per worker, ships each
// shard to its worker through the attach endpoint, and serves queries
// by fanning out and merging exactly. Workers must be able to read the
// server's scratch directory (single-host clusters or a shared
// filesystem) — the shards travel by path, not by value.
type ClusterSpec struct {
	// Path is a headerless CSV on the server's filesystem holding the
	// full point set.
	Path string `json:"path"`
	// Workers are the worker base URLs, in placement order.
	Workers []string `json:"workers"`
	// Policy is the degraded-answer policy: "failfast" (default — any
	// worker failure fails the query) or "partial" (merge the surviving
	// workers and flag the response partial).
	Policy string `json:"policy,omitempty"`
	// MarginMs is the RTT-and-merge margin subtracted from the request
	// deadline when deriving per-worker budgets (default 5).
	MarginMs int64 `json:"marginMs,omitempty"`
	// Retries bounds transport retries per worker call (default 2).
	Retries int `json:"retries,omitempty"`
}

// AttachRequest is the body of PUT /v1/collections/{name}: exactly one
// of Static, Stream, or Cluster, plus collection options.
type AttachRequest struct {
	Static  *StaticSpec  `json:"static,omitempty"`
	Stream  *StreamSpec  `json:"stream,omitempty"`
	Cluster *ClusterSpec `json:"cluster,omitempty"`
	// CacheCapacity and DefaultTimeoutMs map onto
	// skybench.CollectionOptions.
	CacheCapacity    int   `json:"cacheCapacity,omitempty"`
	DefaultTimeoutMs int64 `json:"defaultTimeoutMs,omitempty"`
}

// PointData is one point in a delta event.
type PointData struct {
	ID     uint64    `json:"id"`
	Values []float64 `json:"values"`
}

// DeltaEvent is one skyline membership change on a delta subscription
// (GET /v1/collections/{name}/deltas): the points that entered and left
// after one mutation. Seq numbers the events of one subscription
// consecutively from 1, so a consumer can detect its own gap if it ever
// reconnects.
type DeltaEvent struct {
	Seq     uint64      `json:"seq"`
	Entered []PointData `json:"entered,omitempty"`
	Left    []PointData `json:"left,omitempty"`
}

// ErrorInfo is the error body every non-2xx response carries. Code is
// the stable machine-readable class (the wire form of the skybench
// sentinel errors — see statusForError); Message the human diagnostic.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorBody wraps ErrorInfo in the response envelope.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// statusCanceled is the non-standard 499 "client closed request" status
// (nginx convention) reported when a query's context was canceled for a
// reason other than a deadline — normally because the client went away,
// so in practice nobody sees it; it exists to keep the event log and
// metrics honest.
const statusCanceled = 499

// errorTable is the single sentinel → (status, code) mapping, in match
// order. Order matters for the wrapping sentinels: every
// ErrDeadlineExceeded also wraps ErrCanceled, so the deadline row comes
// first.
var errorTable = []struct {
	sentinel error
	status   int
	code     string
}{
	{skybench.ErrOverloaded, http.StatusTooManyRequests, "overloaded"},
	{skybench.ErrDeadlineExceeded, http.StatusGatewayTimeout, "deadline_exceeded"},
	{skybench.ErrUnknownCollection, http.StatusNotFound, "unknown_collection"},
	{ErrUnknownPoint, http.StatusNotFound, "unknown_point"},
	{skybench.ErrDuplicateCollection, http.StatusConflict, "duplicate_collection"},
	{skybench.ErrWorkerUnavailable, http.StatusBadGateway, "worker_unavailable"},
	{skybench.ErrEpochSkew, http.StatusConflict, "epoch_skew"},
	{skybench.ErrBadQuery, http.StatusBadRequest, "bad_query"},
	{skybench.ErrBadPoint, http.StatusBadRequest, "bad_point"},
	{skybench.ErrBadDataset, http.StatusBadRequest, "bad_dataset"},
	{skybench.ErrUnknownAlgorithm, http.StatusBadRequest, "unknown_algorithm"},
	{skybench.ErrQueryPanic, http.StatusInternalServerError, "query_panic"},
	{skybench.ErrClosed, http.StatusServiceUnavailable, "closed"},
	{skybench.ErrCorruptWAL, http.StatusInternalServerError, "corrupt_wal"},
	{skybench.ErrCanceled, statusCanceled, "canceled"},
}

// statusForError maps an error from the serving surfaces onto its HTTP
// status code and stable wire code, through the one table both
// directions share. Errors outside the typed taxonomy map to 500 /
// "internal".
func statusForError(err error) (status int, code string) {
	for _, row := range errorTable {
		if errors.Is(err, row.sentinel) {
			return row.status, row.code
		}
	}
	return http.StatusInternalServerError, "internal"
}

// SentinelForCode maps a wire error code back onto the skybench
// sentinel it was produced from, so client-side errors.Is works across
// the network exactly as it does in-process. Unknown codes (and
// "internal") return nil.
func SentinelForCode(code string) error {
	for _, row := range errorTable {
		if row.code == code {
			return row.sentinel
		}
	}
	return nil
}

// prefsFromWire parses a wire preference vector ("min"/"max"/"ignore",
// case-insensitive) into skybench preferences.
func prefsFromWire(prefs []string) ([]skybench.Pref, error) {
	if len(prefs) == 0 {
		return nil, nil
	}
	out := make([]skybench.Pref, len(prefs))
	for i, s := range prefs {
		switch strings.ToLower(s) {
		case "min":
			out[i] = skybench.Min
		case "max":
			out[i] = skybench.Max
		case "ignore":
			out[i] = skybench.Ignore
		default:
			return nil, fmt.Errorf("%w: preference %q on dimension %d (want min|max|ignore)", skybench.ErrBadQuery, s, i)
		}
	}
	return out, nil
}

// toQuery converts a wire query into a skybench.Query.
func toQuery(req *QueryRequest) (skybench.Query, error) {
	var q skybench.Query
	if req.Algorithm != "" {
		alg, err := skybench.ParseAlgorithm(req.Algorithm)
		if err != nil {
			return q, err
		}
		q.Algorithm = alg
	}
	prefs, err := prefsFromWire(req.Prefs)
	if err != nil {
		return q, err
	}
	q.Prefs = prefs
	if req.SkybandK < 0 {
		return q, fmt.Errorf("%w: negative skybandK %d", skybench.ErrBadQuery, req.SkybandK)
	}
	q.SkybandK = req.SkybandK
	q.Alpha = req.Alpha
	q.Beta = req.Beta
	if req.Pivot != "" {
		pv, err := skybench.ParsePivot(req.Pivot)
		if err != nil {
			return q, fmt.Errorf("%w: %v", skybench.ErrBadQuery, err)
		}
		q.Pivot = pv
	}
	q.Seed = req.Seed
	q.AllowStale = req.AllowStale
	q.Trace = req.Trace
	return q, nil
}

// queryFingerprint is the stable short fingerprint of a wire query's
// result-determining fields: the per-request event log records it so a
// replay harness (ROADMAP item 5's cmd/loadbench) can group identical
// queries, and it deliberately ignores delivery options (omitValues,
// allowStale, trace) that don't change what is computed.
func queryFingerprint(req *QueryRequest) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d|%d|%d|%s|%d",
		strings.ToLower(req.Algorithm), strings.ToLower(strings.Join(req.Prefs, ",")),
		req.SkybandK, req.Top, req.Alpha, req.Beta, strings.ToLower(req.Pivot), req.Seed)
	return fmt.Sprintf("%016x", h.Sum64())
}

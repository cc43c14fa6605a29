// Package cluster takes a collection cross-process: a Coordinator
// implements the Store-facing query surface (skybench.RemoteBackend)
// by placing contiguous row-range shards of a collection across N
// worker skyserved processes, fanning each query out concurrently
// through the typed wire client, and merging the per-worker bands with
// one engine run over their union (DESIGN.md §10) — so cluster answers
// are set- and count-identical to single-node runs, including
// cross-shard skyband counts.
//
// The merge is sound across the wire because each worker's band
// over-approximates its shard's
// contribution to the global band, and the recount over the union is
// exact (DESIGN.md §15 restates the argument for the wire transport).
// What the wire adds is partial failure, and the package's stance is
// that a degraded answer must always be *typed*: a worker that cannot
// answer yields either ErrWorkerUnavailable (fail-fast policy) or a
// result explicitly flagged Partial (partial policy) — and worker
// responses computed at different membership epochs are rejected with
// ErrEpochSkew rather than merged, because a cross-epoch union is a
// silently wrong answer, not a degraded one.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"skybench"
	"skybench/internal/point"
	"skybench/serve"
	"skybench/serve/client"
)

// Policy is the degraded-answer policy of a cluster collection: what a
// query returns when a worker cannot answer.
type Policy int

const (
	// FailFast fails the whole query with ErrWorkerUnavailable on any
	// worker failure — the default: never serve an answer missing rows
	// unless the operator opted in.
	FailFast Policy = iota
	// Partial merges the surviving workers' bands and flags the result
	// Partial — the AllowStale-style graceful degradation of the
	// cluster layer. The merged set is the exact band of the surviving
	// rows; the failed workers' rows are missing and the response says
	// so.
	Partial
)

// String returns the policy's configuration spelling.
func (p Policy) String() string {
	if p == Partial {
		return "partial"
	}
	return "failfast"
}

// ParsePolicy parses a policy's configuration spelling.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "failfast", "fail-fast":
		return FailFast, nil
	case "partial":
		return Partial, nil
	}
	return 0, fmt.Errorf("%w: cluster policy %q (want failfast|partial)", skybench.ErrBadQuery, s)
}

// WorkerSpec places one contiguous global row range [Lo, Hi) on the
// worker skyserved process at Addr.
type WorkerSpec struct {
	Addr   string
	Lo, Hi int
}

// Config configures a Coordinator.
type Config struct {
	// Collection is the collection name on the workers (Distribute
	// ships shards under the same name the coordinator serves).
	Collection string
	// D is the dimensionality of the placed points.
	D int
	// Workers is the placement: contiguous ascending ranges starting at
	// 0, one per worker.
	Workers []WorkerSpec
	// Policy is the degraded-answer policy (default FailFast).
	Policy Policy
	// Margin is the RTT-and-merge margin subtracted from the request
	// deadline when deriving per-worker budgets (0 = DefaultMargin).
	Margin time.Duration
	// Retries bounds the wire client's transport retries per worker
	// call (0 = 2, negative = disabled).
	Retries int
	// ProbeInterval is the worker health-probe cadence (0 = 2s,
	// negative = no probing; workers then stay reported healthy).
	ProbeInterval time.Duration
	// Engine recounts every candidate union (required; a coordinator
	// served by skyserved shares its Store's).
	Engine *skybench.Engine
	// HTTPClient, when set, is shared by every worker's wire client
	// (tests inject httptest transports here). Default: one private
	// transport per worker.
	HTTPClient *http.Client
}

// worker is one placed worker: its spec, its wire client, and its
// health and fan-out counters.
type worker struct {
	spec     WorkerSpec
	cli      *client.Client
	healthy  atomic.Bool
	queries  atomic.Uint64
	failures atomic.Uint64
}

// Coordinator fans queries out over a static cluster placement and
// merges the per-worker bands exactly. It implements
// skybench.RemoteBackend: attach it with Store.AttachRemote and query
// the resulting Collection like any other.
type Coordinator struct {
	cfg      Config
	n        int
	workers  []*worker
	epoch    atomic.Uint64
	partials atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New validates the placement and starts the health-probe loop. The
// workers are not contacted here — the first query (or probe) is the
// first wire traffic — so a coordinator can be built before its
// workers finish booting.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Collection == "" {
		return nil, fmt.Errorf("%w: cluster config needs a collection name", skybench.ErrBadQuery)
	}
	if cfg.D < 1 {
		return nil, fmt.Errorf("%w: cluster config needs the dimensionality (got %d)", skybench.ErrBadQuery, cfg.D)
	}
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("%w: cluster config needs at least one worker", skybench.ErrBadQuery)
	}
	if cfg.Engine == nil {
		return nil, fmt.Errorf("%w: cluster config needs an engine for the merge", skybench.ErrBadQuery)
	}
	lo := 0
	for i, ws := range cfg.Workers {
		if ws.Addr == "" {
			return nil, fmt.Errorf("%w: worker %d has no address", skybench.ErrBadQuery, i)
		}
		if ws.Lo != lo || ws.Hi <= ws.Lo {
			return nil, fmt.Errorf("%w: worker %d range [%d,%d) is not contiguous from %d", skybench.ErrBadQuery, i, ws.Lo, ws.Hi, lo)
		}
		lo = ws.Hi
	}
	co := &Coordinator{cfg: cfg, n: lo, stop: make(chan struct{})}
	retries := cfg.Retries
	if retries == 0 {
		retries = 2
	}
	for _, ws := range cfg.Workers {
		var cli *client.Client
		if cfg.HTTPClient != nil {
			cli = client.NewWithHTTPClient(ws.Addr, cfg.HTTPClient)
		} else {
			cli = client.New(ws.Addr)
		}
		if retries > 0 {
			cli.SetRetryPolicy(client.RetryPolicy{MaxAttempts: retries + 1})
		}
		w := &worker{spec: ws, cli: cli}
		w.healthy.Store(true)
		co.workers = append(co.workers, w)
	}
	if cfg.ProbeInterval >= 0 {
		interval := cfg.ProbeInterval
		if interval == 0 {
			interval = 2 * time.Second
		}
		co.wg.Add(1)
		go co.probeLoop(interval)
	}
	return co, nil
}

// Close stops the health probes and releases the worker clients' idle
// connections. Store.Drop/Close call it for collections attached with
// CloseOnDrop.
func (co *Coordinator) Close() {
	co.stopOnce.Do(func() { close(co.stop) })
	co.wg.Wait()
	for _, w := range co.workers {
		w.cli.Close()
	}
}

// D returns the dimensionality of the placed points.
func (co *Coordinator) D() int { return co.cfg.D }

// Len returns the total number of rows placed across workers.
func (co *Coordinator) Len() int { return co.n }

// Epoch returns the membership epoch the workers last agreed on (0
// until the first successful query, and forever for static shards).
func (co *Coordinator) Epoch() uint64 { return co.epoch.Load() }

// Placement reports the placement, worker health, and fan-out counters.
func (co *Coordinator) Placement() skybench.PlacementStats {
	ps := skybench.PlacementStats{
		Policy:   co.cfg.Policy.String(),
		Partials: co.partials.Load(),
	}
	for _, w := range co.workers {
		ps.Workers = append(ps.Workers, skybench.WorkerPlacement{
			Addr:     w.spec.Addr,
			Lo:       w.spec.Lo,
			Hi:       w.spec.Hi,
			Healthy:  w.healthy.Load(),
			Queries:  w.queries.Load(),
			Failures: w.failures.Load(),
			Retries:  w.cli.RetryCount(),
		})
	}
	return ps
}

// probeLoop probes every worker's /healthz on a fixed cadence.
func (co *Coordinator) probeLoop(interval time.Duration) {
	defer co.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-co.stop:
			return
		case <-t.C:
			co.Probe()
		}
	}
}

// Probe probes every worker's health endpoint once, concurrently, and
// updates the Healthy flags Placement reports.
func (co *Coordinator) Probe() {
	var wg sync.WaitGroup
	for _, w := range co.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			w.healthy.Store(w.cli.Healthz(ctx) == nil)
		}(w)
	}
	wg.Wait()
}

// margin returns the configured per-query deadline margin.
func (co *Coordinator) margin() time.Duration {
	if co.cfg.Margin > 0 {
		return co.cfg.Margin
	}
	return DefaultMargin
}

// callOut is the outcome of one worker call.
type callOut struct {
	resp     *serve.QueryResponse
	err      error
	panicked bool // err is a panic contained on the fan-out goroutine
	wire     time.Duration
	retries  uint64
}

// deadlineErr builds the triple-wrapped deadline error every deadline
// path in the repository reports, so errors.Is works for ErrCanceled,
// ErrDeadlineExceeded, and context.DeadlineExceeded alike.
func deadlineErr(format string, args ...any) error {
	return fmt.Errorf("%w: %w: %w: %s", skybench.ErrCanceled, skybench.ErrDeadlineExceeded,
		context.DeadlineExceeded, fmt.Sprintf(format, args...))
}

// wrapCtxErr wraps a raw context error the way the rest of the
// repository reports cancellation.
func wrapCtxErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w: %w", skybench.ErrCanceled, skybench.ErrDeadlineExceeded, err)
	}
	return fmt.Errorf("%w: %w", skybench.ErrCanceled, err)
}

// Run answers one query over the placed rows: concurrent fan-out over
// the wire, exact merge, typed failure containment. It implements the
// skybench.RemoteBackend contract — ascending global Indices, exact
// Counts, Partial flagged, never a silently short merge.
func (co *Coordinator) Run(ctx context.Context, q skybench.Query) (*skybench.QueryResult, error) {
	if q.Progressive != nil {
		return nil, fmt.Errorf("%w: progressive delivery cannot cross the cluster wire", skybench.ErrBadQuery)
	}
	if q.Ablation != (skybench.Ablation{}) {
		return nil, fmt.Errorf("%w: ablation flags cannot cross the cluster wire", skybench.ErrBadQuery)
	}
	if len(q.Prefs) != 0 && len(q.Prefs) != co.cfg.D {
		return nil, fmt.Errorf("%w: %d preferences for %d dimensions", skybench.ErrBadQuery, len(q.Prefs), co.cfg.D)
	}
	start := time.Now()

	// The wire request: the query's result-determining fields only.
	// Trace and AllowStale stay coordinator-side (worker traces are
	// rebuilt from the responses' always-on stats; stale degradation
	// belongs to the Collection wrapping this backend — a worker-stale
	// answer would be a cross-epoch merge hazard). Values are always
	// requested: the merge recount needs the candidate coordinates.
	wreq := serve.QueryRequest{
		Algorithm: q.Algorithm.String(),
		SkybandK:  q.SkybandK,
		Alpha:     q.Alpha,
		Beta:      q.Beta,
		Pivot:     q.Pivot.String(),
		Seed:      q.Seed,
	}
	if len(q.Prefs) > 0 {
		wreq.Prefs = make([]string, len(q.Prefs))
		for i, p := range q.Prefs {
			wreq.Prefs[i] = p.String()
		}
	}

	outs := make([]callOut, len(co.workers))
	var wg sync.WaitGroup
	for i, w := range co.workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			// A panic on this goroutine (a transport, the wire client)
			// would take the whole coordinator process down; contain it
			// on the worker's slot so it fails only this query.
			defer func() {
				if r := recover(); r != nil {
					w.failures.Add(1)
					outs[i] = callOut{panicked: true, err: fmt.Errorf("%w: worker %s: %v\n%s",
						skybench.ErrQueryPanic, w.spec.Addr, r, debug.Stack())}
				}
			}()
			outs[i] = co.callWorker(ctx, w, &wreq)
		}(i, w)
	}
	wg.Wait()

	// Keep the first failure of the gravest class. A contained panic is
	// a bug in this process; caller errors (bad query) and merge-safety
	// errors (epoch skew) are the query's own: all three are hard
	// failures under every policy. A deadline or cancel is the caller's
	// budget expiring, not a worker being away; only genuine worker
	// unavailability is policy-shaped.
	var fail error
	class, failed := classNone, 0
	for i, out := range outs {
		if out.err == nil {
			continue
		}
		failed++
		if c, err := classify(out, co.workers[i].spec.Addr); c < class {
			class, fail = c, err
		}
	}
	switch {
	case class == classPanic:
		return nil, fail
	case ctx.Err() != nil:
		return nil, wrapCtxErr(ctx.Err())
	case class < classWorker:
		return nil, fail
	}
	partial := false
	if class == classWorker {
		if co.cfg.Policy == FailFast {
			return nil, fail
		}
		if failed == len(co.workers) {
			return nil, fmt.Errorf("%w: all %d workers failed: %v", skybench.ErrWorkerUnavailable, len(co.workers), fail)
		}
		partial = true
	}

	// Candidates: the union of per-worker bands, each row at its global
	// index, with the shipped coordinates (and stream IDs when every
	// worker has them) kept by candidate position. The answers must
	// agree on the epoch: merging bands computed over different
	// membership epochs would silently mix two point sets, so skew is a
	// hard error under every policy (epoch-consistent stream shipping is
	// the documented non-goal this fences off).
	d := co.cfg.D
	var candRows []int
	var candVals []float64 // d per candidate
	var candIDs []uint64
	var epoch, dts uint64
	input := 0
	hasIDs, answered := true, false
	for i, out := range outs {
		if out.resp == nil {
			continue
		}
		if !answered {
			epoch, answered = out.resp.Epoch, true
		} else if out.resp.Epoch != epoch {
			return nil, fmt.Errorf("%w: worker %s answered at epoch %d, others at %d",
				skybench.ErrEpochSkew, co.workers[i].spec.Addr, out.resp.Epoch, epoch)
		}
		for j, li := range out.resp.Indices {
			candRows = append(candRows, co.workers[i].spec.Lo+li)
			candVals = append(candVals, out.resp.Values[j]...)
		}
		candIDs = append(candIDs, out.resp.IDs...)
		input += out.resp.Stats.InputSize
		dts += out.resp.Stats.DominanceTests
		if len(out.resp.IDs) != len(out.resp.Indices) {
			hasIDs = false
		}
	}
	co.epoch.Store(epoch)

	// One engine run over the union, under the query's preferences, is
	// the exact merge (DESIGN.md §10).
	pos, counts, mergeDTs, err := merge(ctx, co.cfg.Engine, candRows, candVals, d, q.SkybandK, q.Prefs)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			err = wrapCtxErr(cerr)
		}
		return nil, err
	}
	dts += mergeDTs
	indices := make([]int, len(pos))
	rows := make([][]float64, len(pos))
	var ids []uint64
	if hasIDs {
		ids = make([]uint64, len(pos))
	}
	for j, p := range pos {
		indices[j], rows[j] = candRows[p], candVals[p*d:(p+1)*d:(p+1)*d]
		if hasIDs {
			ids[j] = candIDs[p]
		}
	}

	res := skybench.Result{Indices: indices, Counts: counts}
	res.Stats = skybench.Stats{
		DominanceTests: dts,
		SkylineSize:    len(indices),
		InputSize:      input,
		Elapsed:        time.Since(start),
	}
	if partial {
		co.partials.Add(1)
	}
	if q.Trace {
		tr := &skybench.QueryTrace{
			Algorithm:      q.Algorithm.String(),
			SkybandK:       q.SkybandK,
			Epoch:          epoch,
			Partial:        partial,
			InputSize:      input,
			Output:         len(indices),
			DominanceTests: dts,
			Elapsed:        res.Stats.Elapsed,
			Workers:        make([]skybench.WorkerTrace, len(co.workers)),
		}
		for i, w := range co.workers {
			wt := skybench.WorkerTrace{
				Worker:  i,
				Addr:    w.spec.Addr,
				Lo:      w.spec.Lo,
				Hi:      w.spec.Hi,
				Wire:    outs[i].wire,
				Retries: int(outs[i].retries),
			}
			if resp := outs[i].resp; resp != nil {
				wt.InputSize = resp.Stats.InputSize
				wt.Output = len(resp.Indices)
				wt.DominanceTests = resp.Stats.DominanceTests
				wt.Elapsed = time.Duration(resp.Stats.ElapsedNs)
			} else {
				wt.Failed = true
				wt.Err = outs[i].err.Error()
			}
			tr.Workers[i] = wt
		}
		res.Trace = tr
	}
	return skybench.NewRemoteQueryResult(res, epoch, partial, rows, ids), nil
}

// Failure classes of one worker call, gravest first.
const (
	classPanic = iota
	classBad
	classSkew
	classDeadline
	classCancel
	classWorker
	classNone
)

// classify files a failed worker call under its class and words the
// error the query would fail with.
func classify(out callOut, addr string) (int, error) {
	err := out.err
	switch {
	case out.panicked:
		return classPanic, err
	case errors.Is(err, skybench.ErrEpochSkew):
		return classSkew, err
	case errors.Is(err, skybench.ErrBadQuery), errors.Is(err, skybench.ErrUnknownAlgorithm),
		errors.Is(err, skybench.ErrBadDataset), errors.Is(err, skybench.ErrBadPoint):
		return classBad, err
	case errors.Is(err, skybench.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return classDeadline, deadlineErr("worker %s: %v", addr, err)
	case errors.Is(err, skybench.ErrCanceled), errors.Is(err, context.Canceled):
		return classCancel, fmt.Errorf("%w: worker %s: %v", skybench.ErrCanceled, addr, err)
	}
	return classWorker, fmt.Errorf("%w: worker %s: %v", skybench.ErrWorkerUnavailable, addr, err)
}

// callWorker issues one worker's slice of the fan-out: derive the
// worker's deadline budget from the caller's remaining one, round-trip
// the query, and validate the response against the placement.
func (co *Coordinator) callWorker(ctx context.Context, w *worker, req *serve.QueryRequest) callOut {
	w.queries.Add(1)
	var out callOut
	wctx := ctx
	if dl, ok := ctx.Deadline(); ok {
		budget, live := Budget(time.Now(), dl, co.margin())
		if !live {
			w.failures.Add(1)
			out.err = deadlineErr("no budget left for worker %s", w.spec.Addr)
			return out
		}
		var cancel context.CancelFunc
		wctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	r0 := w.cli.RetryCount()
	startCall := time.Now()
	resp, err := w.cli.Query(wctx, co.cfg.Collection, req)
	out.wire = time.Since(startCall)
	out.retries = w.cli.RetryCount() - r0
	if err == nil {
		err = validateResp(w, resp, co.cfg.D)
	}
	if err != nil {
		w.failures.Add(1)
		out.err = err
		return out
	}
	out.resp = resp
	return out
}

// errMalformed marks a worker response whose shape no correct worker
// sends. The call fails as that worker's; classify files it under
// ErrWorkerUnavailable.
var errMalformed = errors.New("malformed worker response")

// validateResp guards the merge against a worker whose answer cannot
// be combined soundly: a row count that drifted from the placement, a
// stale (cross-epoch) degraded answer, or a malformed response — a
// NaN or ±Inf value, which no dataset holds and no dominance test
// orders soundly, or a row listed twice, which the merge would keep
// twice (equal rows do not dominate each other).
func validateResp(w *worker, resp *serve.QueryResponse, d int) error {
	want := w.spec.Hi - w.spec.Lo
	if resp.Stats.InputSize != want {
		return fmt.Errorf("%w: worker %s answered over %d rows, placement says [%d,%d)",
			skybench.ErrEpochSkew, w.spec.Addr, resp.Stats.InputSize, w.spec.Lo, w.spec.Hi)
	}
	if resp.Stale {
		return fmt.Errorf("%w: worker %s served a stale answer into a fan-out", skybench.ErrEpochSkew, w.spec.Addr)
	}
	if len(resp.Values) != len(resp.Indices) {
		return fmt.Errorf("%w: worker %s returned %d value rows for %d indices", errMalformed, w.spec.Addr, len(resp.Values), len(resp.Indices))
	}
	if resp.Counts != nil && len(resp.Counts) != len(resp.Indices) {
		return fmt.Errorf("%w: worker %s returned %d counts for %d indices", errMalformed, w.spec.Addr, len(resp.Counts), len(resp.Indices))
	}
	for j, li := range resp.Indices {
		if li < 0 || li >= want {
			return fmt.Errorf("%w: worker %s returned row %d outside its %d-row shard",
				skybench.ErrEpochSkew, w.spec.Addr, li, want)
		}
		if len(resp.Values[j]) != d {
			return fmt.Errorf("%w: worker %s returned a %d-dimensional row, want %d", errMalformed, w.spec.Addr, len(resp.Values[j]), d)
		}
		for _, v := range resp.Values[j] {
			if !point.Finite(v) {
				return fmt.Errorf("%w: worker %s returned row %d with non-finite value %v", errMalformed, w.spec.Addr, li, v)
			}
		}
	}
	sorted := slices.Sorted(slices.Values(resp.Indices))
	for j := 1; j < len(sorted); j++ {
		if sorted[j] == sorted[j-1] {
			return fmt.Errorf("%w: worker %s returned row %d twice", errMalformed, w.spec.Addr, sorted[j])
		}
	}
	return nil
}

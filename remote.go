package skybench

import (
	"context"
	"fmt"
	"time"
)

// RemoteBackend is the third kind of backing a Collection accepts,
// next to an immutable Dataset and a live StreamSource: a point set
// whose rows live in other processes and whose queries are answered by
// fanning out over a transport and merging remotely computed bands.
// The cluster coordinator (internal/cluster) is the implementation;
// the interface lives here so the Store never imports the transport.
//
// A backend's Run must uphold the Collection result contract: Indices
// are global row indices in ascending order, Counts (k-skyband) are
// exact global dominator counts, and the answer is set- and
// count-identical to a single-node run over the same rows — unless it
// is explicitly flagged Partial. Implementations are responsible for
// their own failure containment; the Collection contributes the
// epoch-keyed result cache, default deadlines, admission control, and
// stats surfacing on top.
type RemoteBackend interface {
	// D returns the dimensionality of the backend's points.
	D() int
	// Len returns the total number of rows placed across workers.
	Len() int
	// Epoch returns the last membership epoch the workers agreed on
	// (0 until the first successful query for static placements).
	// Cached results are keyed by it.
	Epoch() uint64
	// Run answers one query over the placed rows. Partial answers must
	// be flagged on the returned QueryResult (NewRemoteQueryResult),
	// never silently merged short.
	Run(ctx context.Context, q Query) (*QueryResult, error)
	// Placement describes the current worker placement and health for
	// stats and info surfaces.
	Placement() PlacementStats
}

// PlacementStats describes how a cluster-backed collection's rows are
// placed across worker processes, and how the fan-out has fared —
// surfaced through CollectionStats.Placement and the info endpoints.
type PlacementStats struct {
	// Policy is the degraded-answer policy: "failfast" (any worker
	// failure fails the query with ErrWorkerUnavailable) or "partial"
	// (merge the surviving workers and flag the result Partial).
	Policy string `json:"policy"`
	// Partials counts degraded answers served so far.
	Partials uint64 `json:"partials,omitempty"`
	// Workers describes each worker in placement order.
	Workers []WorkerPlacement `json:"workers"`
}

// WorkerPlacement is one worker's slice of a cluster placement.
type WorkerPlacement struct {
	// Addr is the worker's base URL.
	Addr string `json:"addr"`
	// Lo and Hi are the contiguous global row range [Lo, Hi) placed on
	// the worker.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Healthy is the outcome of the most recent health probe (true
	// until the first probe fails).
	Healthy bool `json:"healthy"`
	// Queries counts query round trips sent to the worker, Failures
	// the ones that produced no mergeable answer, and Retries the
	// transport retries the client spent on the worker.
	Queries  uint64 `json:"queries"`
	Failures uint64 `json:"failures,omitempty"`
	Retries  uint64 `json:"retries,omitempty"`
}

// NewRemoteQueryResult assembles the QueryResult a RemoteBackend
// returns from Run. res carries the merged global result (ascending
// Indices, exact Counts, aggregated Stats, optional Trace); epoch is
// the worker-agreed membership epoch; partial flags a degraded answer;
// rows holds the coordinates of each result point (parallel to
// res.Indices — remote results have no local snapshot to resolve rows
// against); ids optionally carries stable stream IDs, also parallel to
// res.Indices, nil when the placement is static.
func NewRemoteQueryResult(res Result, epoch uint64, partial bool, rows [][]float64, ids []uint64) *QueryResult {
	return &QueryResult{Result: res, Epoch: epoch, Partial: partial, rows: rows, rids: ids}
}

// AttachRemote registers a RemoteBackend — typically a
// cluster.Coordinator fanning a query out to worker skyserved
// processes — as a named collection. Queries route through the
// backend; the Store-side collection wraps it with the epoch-keyed
// result cache, default deadlines, admission control, and the stats
// surface. With CollectionOptions.CloseOnDrop, dropping the collection
// (or closing the Store) also closes the backend if it has a Close
// method — stopping its health probes.
func (s *Store) AttachRemote(name string, rb RemoteBackend, opts CollectionOptions) (*Collection, error) {
	if rb == nil {
		return nil, fmt.Errorf("%w: nil RemoteBackend", ErrBadDataset)
	}
	opts.Shards = 1 // fan-out shape belongs to the backend's placement
	c := s.newCollection(name, opts)
	c.remote = rb
	if err := s.add(name, c); err != nil {
		return nil, err
	}
	return c, nil
}

// ClusterBacked reports whether the collection is backed by a
// RemoteBackend (a cluster placement) rather than local rows.
func (c *Collection) ClusterBacked() bool { return c.remote != nil }

// runRemote answers a query through the collection's RemoteBackend,
// wrapping it in the same epoch-keyed caching as local execution. The
// backend owns fan-out, merge, and failure policy; partial (degraded)
// answers are never cached — the missing rows may be back on the next
// query, and a cache must not pin a degraded answer for a healthy
// cluster.
func (c *Collection) runRemote(ctx context.Context, q Query) (*QueryResult, bool, error) {
	if q.Progressive != nil {
		return nil, false, fmt.Errorf("%w: progressive delivery needs a local collection", ErrBadQuery)
	}
	fp, cacheable := fingerprint{}, false
	if c.cacheCap > 0 {
		fp, cacheable = queryFingerprint(&q, c.remote.D())
	}
	if cacheable {
		if r := c.lookup(fp, c.remote.Epoch()); r != nil {
			if q.Trace {
				r = r.withCacheHitTrace(&q)
			}
			return r, true, nil
		}
	}
	start := time.Now()
	r, err := c.remote.Run(ctx, q)
	if err != nil {
		return nil, false, err
	}
	c.costs.record(q.Algorithm, time.Since(start), r.Stats.DominanceTests)
	if cacheable && !r.Partial {
		r.memo = new(payloadMemo)
		// Key the entry at the epoch the answer was actually computed at
		// (the workers may have advanced past the epoch probed above).
		cached := r
		if r.Result.Trace != nil {
			cp := *r
			cp.Result.Trace = nil
			cached = &cp
		}
		c.store(fp, r.Epoch, cached)
	}
	return r, false, nil
}

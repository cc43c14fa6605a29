package skybench

import (
	"context"
	"fmt"
)

// RemoteBackend is what Store.AttachRemote puts behind a Collection's
// backing interface, next to an immutable Dataset and a live
// StreamSource: a point set whose rows live in other processes and whose
// queries are answered by fanning out over a transport and merging
// remotely computed bands. The cluster coordinator (internal/cluster) is
// the implementation; the interface lives here so the Store never
// imports the transport.
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
	c := s.newCollection(name, opts)
	c.back = remoteBacking{rb}
	if err := s.add(name, c); err != nil {
		return nil, err
	}
	return c, nil
}

// remoteBacking adapts a RemoteBackend to the backing interface. The
// backend owns fan-out, merge, and failure policy; a frozen membership
// is only its epoch — there are no local rows to pin.
type remoteBacking struct{ rb RemoteBackend }

func (b remoteBacking) dims() int          { return b.rb.D() }
func (b remoteBacking) epoch() uint64      { return b.rb.Epoch() }
func (b remoteBacking) size() (int, error) { return b.rb.Len(), nil }

func (b remoteBacking) freeze(context.Context) (*colSnapshot, error) {
	return &colSnapshot{epoch: b.rb.Epoch()}, nil
}

func (b remoteBacking) rows(_ context.Context, snap *colSnapshot) (*colSnapshot, error) {
	return snap, nil
}

func (b remoteBacking) maintains(Query) bool { return false }

func (b remoteBacking) answer(ctx context.Context, _ *colSnapshot, q Query) (*QueryResult, error) {
	if q.Progressive != nil {
		return nil, fmt.Errorf("%w: progressive delivery needs a local collection", ErrBadQuery)
	}
	return b.rb.Run(ctx, q)
}

func (b remoteBacking) close() { closeIfCloser(b.rb) }

func (b remoteBacking) describe(st *CollectionStats) {
	pl := b.rb.Placement()
	st.Placement = &pl
}

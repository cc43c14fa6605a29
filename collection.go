package skybench

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// defaultCacheCapacity is the per-collection result-cache size used
// when CollectionOptions.CacheCapacity is zero.
const defaultCacheCapacity = 64

// CollectionOptions configures a collection at Attach time.
type CollectionOptions struct {
	// Shards is ignored: a local collection answers every engine query
	// with one Engine run over its rows, which splits its α-blocks over
	// the Engine's pool.
	//
	// Deprecated: in-process sharding is gone (DESIGN.md §10). Only a
	// cluster-backed collection fans out, over its worker placement.
	Shards int
	// CacheCapacity bounds the collection's result cache: 0 selects
	// defaultCacheCapacity, negative disables caching entirely.
	CacheCapacity int
	// DefaultTimeout overrides the Store's StoreOptions.DefaultTimeout
	// for this collection: 0 inherits the Store's, negative disables the
	// default deadline entirely. A deadline already on the query's
	// context always wins.
	DefaultTimeout time.Duration
	// CloseOnDrop transfers ownership of the backing StreamSource to the
	// Store: dropping the collection (or closing the Store) calls the
	// source's Close method, if it has one. This is how durable stream
	// collections get their WAL cleanly closed at Store shutdown.
	CloseOnDrop bool
}

// StreamSource is the live backing a Collection accepts in place of an
// immutable Dataset — the read-side contract stream.SkylineIndex (and
// anything shaped like it) satisfies. A source owns a mutating set of
// d-dimensional points and can materialize it consistently.
type StreamSource interface {
	// D returns the dimensionality of the source's points.
	D() int
	// LiveEpoch returns the membership epoch of the live point set: a
	// counter that advances on every mutation that changes which points
	// are live (every insert and every successful delete). It must be
	// safe to call concurrently with mutations and must not block on
	// the source's write lock, so cached-result revalidation stays
	// cheap.
	LiveEpoch() uint64
	// LiveSnapshot atomically materializes the live set: n×D original
	// (un-staged) coordinates in row-major vals, per-row stable IDs,
	// and the LiveEpoch value the materialization corresponds to. The
	// returned slices are caller-owned. Row order must be deterministic
	// for an unchanged epoch.
	LiveSnapshot() (vals []float64, ids []uint64, epoch uint64)
}

// BandSource is the optional capability of a StreamSource that already
// maintains the k-skyband of its own live set under fixed preferences —
// stream.SkylineIndex does. A Collection over such a source answers the
// queries the maintained band is exactly the answer to (see LiveBand)
// by reading it, instead of materializing the live set and recomputing
// the same rows; every other query, and every source without the
// capability, goes through LiveSnapshot as before.
type BandSource interface {
	StreamSource
	// LiveBand returns the maintained band at the source's current live
	// epoch. Everything in it must be read under one acquisition of the
	// source's lock, so the band and the epoch it is labelled with
	// cannot disagree. The returned slices are caller-owned.
	LiveBand() LiveBand
}

// LiveBand is the band a BandSource maintains, as of one live epoch:
// every live point dominated by fewer than K others under Prefs. A
// point's dominators are counted over the whole live set, and every
// dominator of a band row is itself a band row (DESIGN.md §9, the
// closure lemma), so Counts are the global dominator counts and the
// rows with Counts[i] < k′ are exactly the k′-skyband for any k′ ≤ K.
type LiveBand struct {
	// Prefs and K are the preferences (empty = minimize everything, as
	// Query.Prefs) and band parameter (≥ 1; 1 = skyline) the source
	// maintains its band under. Both are fixed for the life of the
	// source.
	Prefs []Pref
	K     int
	// Live is the number of live points and Epoch the LiveEpoch value
	// the whole reading is exact for.
	Live  int
	Epoch uint64
	// Pos, IDs, Vals and Counts describe the band rows, in ascending
	// Pos order. Pos[i] is the row's position in LiveSnapshot's row
	// order at Epoch (so 0 ≤ Pos[i] < Live); IDs[i] its stable ID; row
	// i of the row-major Vals its D original (un-staged) coordinates;
	// Counts[i] its exact dominator count (< K). Counts may be nil when
	// K is 1, every skyline point being undominated.
	Pos    []int
	IDs    []uint64
	Vals   []float64
	Counts []int32
}

// colSnapshot freezes one membership epoch of a collection: the rows as
// an immutable Dataset and (for stream-backed collections) the stable ID
// of each row. Static collections have exactly one snapshot for their
// whole life. A snapshot whose rows are not in this process — a remote
// backing's, or a stream backing's before anything needed them — pins
// the epoch alone (ds is nil).
type colSnapshot struct {
	epoch uint64
	ds    *Dataset // nil: the epoch alone is pinned
	ids   []uint64 // stream-backed only; nil for static collections
}

// backing is where a collection's rows live and how a query over them
// is answered: an immutable Dataset, a live StreamSource, or a
// RemoteBackend. Everything above it — deadlines, admission, resolving
// Auto, the epoch-keyed result cache, stale fallback, stats — is the
// Collection's and is written once, against this interface.
type backing interface {
	// dims returns the dimensionality of the rows.
	dims() int
	// epoch returns the current membership epoch, without blocking.
	epoch() uint64
	// size returns the current number of rows.
	size() (int, error)
	// freeze pins the current membership: the snapshot a query is keyed
	// and looked up against. Only a static backing's carries rows; the
	// others pin the epoch. For local backings the fast path (nothing
	// changed since the last freeze) must not allocate.
	freeze(ctx context.Context) (*colSnapshot, error)
	// maintains reports whether q asks for exactly what the backing
	// already holds, so answer will read it rather than compute it. Such
	// an answer is no engine run and is not booked as one.
	maintains(q Query) bool
	// answer computes q over a frozen membership. The result's Epoch is
	// the epoch it was actually computed at.
	answer(ctx context.Context, snap *colSnapshot, q Query) (*QueryResult, error)
	// close releases what the backing owns (CloseOnDrop).
	close()
	// describe fills the backing-specific facets of a stats snapshot.
	describe(st *CollectionStats)
}

// local is the half the static and stream backings share: the frozen
// rows are in this process, so a query over them is one Engine run.
type local struct{ eng *Engine }

func (l local) answer(ctx context.Context, snap *colSnapshot, q Query) (*QueryResult, error) {
	q.ReuseIndices = false // results may outlive any engine context
	res, err := l.eng.exec(ctx, snap.ds, q)
	if err != nil {
		return nil, err
	}
	return &QueryResult{Result: res, Epoch: snap.epoch, snap: snap}, nil
}

// staticBacking is an immutable Dataset: one snapshot for life, epoch 0.
type staticBacking struct {
	local
	snap *colSnapshot
}

func (b *staticBacking) dims() int                                    { return b.snap.ds.d }
func (b *staticBacking) epoch() uint64                                { return 0 }
func (b *staticBacking) size() (int, error)                           { return b.snap.ds.n, nil }
func (b *staticBacking) freeze(context.Context) (*colSnapshot, error) { return b.snap, nil }
func (b *staticBacking) maintains(Query) bool                         { return false }
func (b *staticBacking) close()                                       {}
func (b *staticBacking) describe(*CollectionStats)                    {}

// streamBacking is a live StreamSource. A frozen membership is only its
// epoch; the live set is materialized — at most once per membership
// epoch — when a query needs the rows to run the engine over. A query
// the source's maintained band is exactly the answer to (maintains)
// does not, and copies nothing but the band.
type streamBacking struct {
	local
	src StreamSource

	// band is src's BandSource facet (nil without one) and bandPrefs,
	// bandK the fixed shape of the band it maintains, read once at attach.
	band      BandSource
	bandPrefs canonPrefs
	bandK     int

	snapMu sync.Mutex                  // serializes materialization
	snap   atomic.Pointer[colSnapshot] // latest frozen membership, with rows once materialized
}

func newStreamBacking(eng *Engine, src StreamSource) *streamBacking {
	b := &streamBacking{local: local{eng}, src: src}
	if bs, ok := src.(BandSource); ok {
		lb := bs.LiveBand()
		if prefs, ok := canonicalPrefs(lb.Prefs, src.D()); ok && lb.K >= 1 {
			b.band, b.bandPrefs, b.bandK = bs, prefs, lb.K
		}
	}
	return b
}

func (b *streamBacking) dims() int     { return b.src.D() }
func (b *streamBacking) epoch() uint64 { return b.src.LiveEpoch() }

// size asks a source that can report its live count directly
// (stream.SkylineIndex can) and materializes a snapshot otherwise.
func (b *streamBacking) size() (int, error) {
	if src, ok := b.src.(interface{ Len() int }); ok {
		return src.Len(), nil
	}
	snap, err := b.materialized(context.Background())
	if err != nil {
		return 0, err
	}
	return snap.ds.n, nil
}

func (b *streamBacking) close() { closeIfCloser(b.src) }

// closeIfCloser closes a StreamSource or RemoteBackend that has a Close
// method; neither interface asks for one.
func closeIfCloser(v any) {
	if cl, ok := v.(interface{ Close() }); ok {
		cl.Close()
	}
}

func (b *streamBacking) describe(st *CollectionStats) {
	st.StreamBacked = true
	if dp, ok := b.src.(durabilityProvider); ok {
		if ds, ok := dp.DurabilityStats(); ok {
			st.Durability = &ds
		}
	}
}

// freeze pins the source's current live epoch and nothing else, as the
// remote backing's does: no rows are read until something needs them.
// The same snapshot is handed out for as long as the epoch stands (with
// the rows, once a query materialized them), so the unchanged-epoch
// path does not allocate.
func (b *streamBacking) freeze(context.Context) (*colSnapshot, error) {
	// Loaded before the epoch is read: a materialization that lands in
	// between fails the swap below instead of being overwritten.
	old := b.snap.Load()
	epoch := b.src.LiveEpoch()
	if old != nil && old.epoch == epoch {
		return old, nil
	}
	s := &colSnapshot{epoch: epoch}
	b.snap.CompareAndSwap(old, s)
	return s, nil
}

// maintains reports whether q is answered by the band the source
// maintains: the source's own preferences (after canonicalization, so
// empty ≡ all-Min), a band width max(SkybandK, 1) within the source's,
// one of the algorithms that computes that band (or Auto), delivered
// whole and with every design component on. Invalid shapes never match:
// they fall through to the engine, which rejects them with its typed
// errors.
func (b *streamBacking) maintains(q Query) bool {
	if b.band == nil || q.Progressive != nil || q.Ablation != (Ablation{}) {
		return false
	}
	if q.Algorithm != Hybrid && q.Algorithm != QFlow && q.Algorithm != Auto {
		return false
	}
	if q.SkybandK < 0 || q.SkybandK > b.bandK {
		return false
	}
	prefs, ok := canonicalPrefs(q.Prefs, b.src.D())
	return ok && prefs == b.bandPrefs
}

// answer reads the maintained band for a query it answers and otherwise
// materializes the live set and runs the engine over it.
func (b *streamBacking) answer(ctx context.Context, snap *colSnapshot, q Query) (*QueryResult, error) {
	if b.maintains(q) {
		return b.bandAnswer(ctx, &q)
	}
	if snap.ds == nil {
		var err error
		if snap, err = b.materialized(ctx); err != nil {
			return nil, err
		}
	}
	return b.local.answer(ctx, snap, q)
}

// bandAnswer answers q — which maintains accepted — as the maintained
// band's rows with fewer than max(q.SkybandK, 1) dominators. It is the
// answer materialize-and-run would give at the band's live epoch, as a
// set of (index, ID, row, count): Indices are positions in
// LiveSnapshot's row order, ascending, and the maintained counts are the
// global ones (the closure lemma, DESIGN.md §9). It takes the remote
// result shape — rows and IDs travel with the result, no frozen
// snapshot is pinned — and did no dominance tests.
func (b *streamBacking) bandAnswer(ctx context.Context, q *Query) (*QueryResult, error) {
	start := time.Now()
	lb, err := awaitSource(ctx, func() (LiveBand, error) { return b.band.LiveBand(), nil })
	if err != nil {
		return nil, err
	}
	d := b.src.D()
	if len(lb.IDs) != len(lb.Pos) || len(lb.Vals) != len(lb.Pos)*d ||
		(lb.Counts == nil && lb.K > 1) || (lb.Counts != nil && len(lb.Counts) != len(lb.Pos)) {
		return nil, fmt.Errorf("%w: BandSource returned a band of inconsistent lengths", ErrBadDataset)
	}
	k := max(q.SkybandK, 1)
	rows := make([][]float64, 0, len(lb.Pos))
	for i := range lb.Pos {
		if lb.Counts != nil && int(lb.Counts[i]) >= k {
			continue
		}
		// The band's slices are ours: survivors compact in place.
		n := len(rows)
		lb.Pos[n], lb.IDs[n] = lb.Pos[i], lb.IDs[i]
		if k > 1 {
			lb.Counts[n] = lb.Counts[i]
		}
		rows = append(rows, lb.Vals[i*d:(i+1)*d:(i+1)*d])
	}
	res := Result{Indices: lb.Pos[:len(rows)]}
	if k > 1 {
		res.Counts = lb.Counts[:len(rows)]
	}
	res.Stats = Stats{SkylineSize: len(rows), InputSize: lb.Live, Elapsed: time.Since(start)}
	if q.Trace {
		res.Trace = traceFromResult(q.Algorithm, q.SkybandK, &res)
		res.Trace.Band = true
	}
	return &QueryResult{Result: res, Epoch: lb.Epoch, rows: rows, rids: lb.IDs[:len(rows)]}, nil
}

// sourceRead carries a source read across the goroutine boundary in
// awaitSource.
type sourceRead[T any] struct {
	v   T
	err error
}

// awaitSource runs read, which blocks on the source's write lock (a
// rebuilding stream can hold it for a while). When ctx can expire the
// wait happens on a side goroutine and the query abandons it on time;
// the abandoned read still completes in the background. With an
// un-cancelable context it stays inline and allocation-free.
func awaitSource[T any](ctx context.Context, read func() (T, error)) (T, error) {
	if ctx.Done() == nil {
		return read()
	}
	ch := make(chan sourceRead[T], 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- sourceRead[T]{err: panicErr(r, debug.Stack())}
			}
		}()
		v, err := read()
		ch <- sourceRead[T]{v: v, err: err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-ctx.Done():
		var zero T
		return zero, canceledErr(ctx.Err())
	}
}

// materialized returns the source's current membership with its rows,
// copying them out only when its epoch advanced past the last copy (an
// abandoned materialization is still cached, so the next query finds it
// warm).
func (b *streamBacking) materialized(ctx context.Context) (*colSnapshot, error) {
	if s := b.snap.Load(); s != nil && s.ds != nil && s.epoch == b.src.LiveEpoch() {
		return s, nil
	}
	return awaitSource(ctx, b.materialize)
}

// materialize takes a fresh snapshot of the source, unless a concurrent
// caller already did for the current epoch.
func (b *streamBacking) materialize() (*colSnapshot, error) {
	b.snapMu.Lock()
	defer b.snapMu.Unlock()
	if s := b.snap.Load(); s != nil && s.ds != nil && s.epoch == b.src.LiveEpoch() {
		return s, nil
	}
	vals, ids, epoch := b.src.LiveSnapshot()
	ds, err := DatasetFromFlat(vals, len(ids), b.src.D())
	if err != nil {
		return nil, err
	}
	s := &colSnapshot{epoch: epoch, ds: ds, ids: ids}
	b.snap.Store(s)
	return s, nil
}

// Collection is one named queryable point set inside a Store: an
// immutable Dataset, a live StreamSource or a RemoteBackend behind a
// single query surface, with epoch-keyed result caching.
//
// Run is safe for concurrent use by any number of goroutines. Results
// are *QueryResult handles that may be shared by the cache across
// callers: they are immutable — never write to their Indices or Counts;
// use Result.Clone for a mutable copy.
type Collection struct {
	name string
	back backing

	owner       *Store        // admits every Run
	timeout     time.Duration // default per-query deadline (0 = none)
	closeOnDrop bool          // Drop/Close also closes the backing

	cmu      sync.Mutex
	entries  resultFIFO // results at the current epoch (one epoch at a time)
	stale    resultFIFO // last result per fingerprint, any epoch
	cacheCap int        // ≤ 0 disables caching
	hits     atomic.Uint64
	misses   atomic.Uint64

	bandAnswers atomic.Uint64 // misses answered from the source's maintained band

	inflight atomic.Int64 // admitted queries currently executing

	dropped   atomic.Bool
	closeOnce sync.Once
}

// closeSource closes the backing if the collection owns it
// (CollectionOptions.CloseOnDrop). Idempotent.
func (c *Collection) closeSource() {
	if c.closeOnDrop {
		c.closeOnce.Do(c.back.close)
	}
}

// QueryResult is the outcome of a Collection query: the Result plus the
// membership epoch it answers for and accessors resolving result
// positions back to rows and stream IDs.
//
// Indices are row positions in the membership at Epoch. For a
// stream-backed collection that is StreamSource.LiveSnapshot's row order
// at that epoch, and it is the same whether the engine ran over the
// materialized live set or the answer was read from the band the source
// maintains (BandSource): the two are indistinguishable as sets of
// (index, ID, row, count). A band answer's Indices are ascending, its
// Stats report the live count as InputSize and zero DominanceTests.
//
// Aliasing rule: a QueryResult may be shared by the collection's cache
// across any number of callers — it is immutable. Read Indices, Counts,
// and Stats freely from any goroutine; never write to them. Clone (on
// the embedded Result) detaches mutable copies.
type QueryResult struct {
	Result
	// Epoch is the collection membership epoch the result was computed
	// at; it matches Collection.Epoch() for as long as the result is
	// current.
	Epoch uint64
	// Stale marks a result served by graceful degradation: the query
	// opted in with Query.AllowStale and the collection answered from
	// the last cached result for this query shape — possibly computed at
	// an earlier epoch — because computing fresh failed with overload or
	// a missed deadline.
	Stale bool
	// CacheHit marks a result this call's own lookup found in the
	// collection's result cache: nothing was computed or read for it. It
	// is the call's own report, exact however requests overlap, as two
	// reads of the shared CacheStats counters around a call are not. A
	// stale fallback is not a hit.
	CacheHit bool
	// Partial marks a degraded cluster answer: one or more workers
	// failed and the collection's partial policy merged the surviving
	// ones, so the rows placed on the failed workers are missing.
	// Always false for local collections and under the fail-fast
	// policy, where a worker failure is an error instead.
	Partial bool
	// Plan records what an Algorithm: Auto query ran as — Hybrid — (also
	// mirrored into Trace.Planner when the query was traced); nil for
	// queries that named their algorithm. It is set on cache hits and
	// stale fallbacks too. It is also nil for an Auto
	// query answered from the band its stream source maintains
	// (BandSource): that answer runs no algorithm at all.
	Plan *PlannerTrace

	snap *colSnapshot // engine results: frozen snapshot rows resolve against
	rows [][]float64  // remote and band results: per-result-point coordinates
	rids []uint64     // remote and band results: per-result-point stream IDs (optional)

	// memo holds the result's encoded wire payloads. It is a pointer so
	// that every struct copy of a cached result (a traced hit, an Auto
	// hit, a stale fallback) shares the one holder the cache entry owns;
	// nil on results the cache never stored.
	memo *payloadMemo
}

// Len returns the number of result points.
func (r *QueryResult) Len() int { return len(r.Indices) }

// Row returns the coordinates of the p-th result point (original,
// un-staged values, whatever the query's preferences). The slice
// aliases the result's frozen snapshot — or the coordinates that came
// with the answer: shipped back with the worker responses of a
// cluster-backed collection, copied out with the band of a BandSource.
// Read-only, valid forever in every case.
func (r *QueryResult) Row(p int) []float64 {
	if r.snap == nil {
		return r.rows[p]
	}
	return r.snap.ds.row(r.Indices[p])
}

// ID returns the stable stream ID of the p-th result point of a
// stream-backed collection (it matches stream.ID), whether the answer
// was computed over the materialized live set or read from the source's
// maintained band. For static collections there are no IDs and ok is
// false — Indices themselves are the stable handle there.
func (r *QueryResult) ID(p int) (id uint64, ok bool) {
	if r.snap == nil {
		if r.rids == nil {
			return 0, false
		}
		return r.rids[p], true
	}
	if r.snap.ids == nil {
		return 0, false
	}
	return r.snap.ids[r.Indices[p]], true
}

// Run answers one query over the collection's current membership.
// Identical queries against an unchanged collection are served from the
// epoch-keyed cache without recomputing (and, untraced, without
// allocating); a membership change invalidates automatically because the
// stale epoch no longer matches. See the immutability rule on
// QueryResult.
//
// A static or stream collection answers an engine query with one Engine
// run over its frozen rows: Result.Indices, Counts and their order are
// exactly Engine.Run's over those rows. A cluster-backed collection fans
// out over its workers and merges (Store.AttachRemote); its Indices
// come back in ascending row order. Progressive delivery needs a local
// collection and bypasses the cache.
//
// Every Run passes the Store's admission control
// (StoreOptions.MaxInflight/MaxQueue) under the query's deadline — the
// caller's, or the collection's DefaultTimeout when the context carries
// none. Beyond the queue bound it fails at once with ErrOverloaded, and
// after Store.Close with ErrClosed; Query.AllowStale degrades an
// overloaded or late query to the cached answer. A panic anywhere below
// fails the query with ErrQueryPanic instead of crashing the process.
func (c *Collection) Run(ctx context.Context, q Query) (res *QueryResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, panicErr(r, debug.Stack())
		}
	}()
	// Apply the collection's default deadline when the caller's context
	// carries none; an explicit caller deadline always wins.
	if c.timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.timeout)
			defer cancel()
		}
	}
	plan := c.resolve(&q)
	if err := c.owner.admit(ctx); err != nil {
		return c.staleFallback(&q, plan, err)
	}
	defer c.owner.release()
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	if res, err = c.run(ctx, q, plan); err != nil {
		return c.staleFallback(&q, plan, err)
	}
	return res, nil
}

// resolve rewrites an Algorithm: Auto query in place to what Auto is:
// Hybrid at the paper's defaults (tuning the caller set stays; DESIGN.md
// §14). It returns the record reported as QueryResult.Plan: nil for a
// query that named its algorithm, and for an answer the backing
// maintains, which runs nothing and is the explicit Hybrid query's
// answer. Resolving once, before the cache is consulted, keys the
// lookup, the store and the stale fallback alike, so Auto and Hybrid
// share one cache entry.
func (c *Collection) resolve(q *Query) *PlannerTrace {
	if q.Algorithm != Auto {
		return nil
	}
	q.Algorithm = Hybrid
	if c.back.maintains(*q) {
		return nil
	}
	return &PlannerTrace{Algorithm: Hybrid.String()}
}

// key is the cache key of q, reporting false when q must not be cached.
func (c *Collection) key(q *Query) (fingerprint, bool) {
	if c.cacheCap <= 0 {
		return fingerprint{}, false
	}
	return queryFingerprint(q, c.back.dims())
}

// run is Run without the deadline, admission and graceful-degradation
// wrappers: freeze the membership, look the answer up, and on a miss
// have the backing compute it — or read it, when it already maintains
// it — and cache what came back. There is one tail for every miss,
// whatever produced the answer.
func (c *Collection) run(ctx context.Context, q Query, plan *PlannerTrace) (*QueryResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(err)
	}
	if c.dropped.Load() {
		return nil, fmt.Errorf("%w: collection %q", ErrClosed, c.name)
	}
	snap, err := c.back.freeze(ctx)
	if err != nil {
		return nil, err
	}
	fp, cacheable := c.key(&q)
	if cacheable {
		if r := c.lookup(fp, snap.epoch); r != nil {
			if q.Trace {
				r = r.withCacheHitTrace(&q, plan)
			} else if plan != nil {
				cp := *r
				cp.Plan = plan
				r = &cp
			}
			return r, nil
		}
	}
	r, err := c.back.answer(ctx, snap, q)
	if err != nil {
		return nil, err
	}
	if c.back.maintains(q) {
		c.bandAnswers.Add(1)
	}
	r.Plan = plan
	if r.Trace != nil {
		r.Trace.Epoch = r.Epoch
		r.Trace.Planner = plan
	}
	// A partial (degraded) answer is never cached — the missing rows may
	// be back on the next query, and a cache must not pin a degraded
	// answer for a healthy cluster.
	if cacheable && !r.Partial {
		// The holder goes on before any copy is taken, so what this first
		// caller encodes is what later hits are answered with.
		r.memo = new(payloadMemo)
		// The cache shares its entries across callers, traced and
		// untraced, Auto and explicit alike, so the stored copy never
		// carries a trace or a Plan: both describe the first caller's
		// query, not a later hit's. It is marked as the hit every later
		// lookup returns, so an untraced hit hands it out as it is.
		cached := *r
		cached.Result.Trace = nil
		cached.Plan = nil
		cached.CacheHit = true
		// Keyed at the epoch the answer was actually computed at (remote
		// workers and a stream source may have advanced past the epoch
		// frozen above).
		c.store(fp, r.Epoch, &cached)
	}
	return r, nil
}

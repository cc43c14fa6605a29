package skybench

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"skybench/internal/planner"
	"skybench/internal/point"
	"skybench/internal/shard"
)

// DefaultCacheCapacity is the per-collection result-cache size used
// when CollectionOptions.CacheCapacity is zero.
const DefaultCacheCapacity = 64

// CollectionOptions configures a collection at Attach time.
type CollectionOptions struct {
	// Shards splits the collection into that many contiguous partitions
	// (≤ 1 keeps it unsharded). Queries fan out one Engine run per
	// shard, concurrently, and the per-shard results are merged into
	// the exact global result — identical, as a set, to the unsharded
	// answer, with exact dominator counts for k-skyband queries (the
	// soundness argument is in DESIGN.md §10). Shards larger than the
	// row count are clamped so every shard is non-empty.
	Shards int
	// CacheCapacity bounds the collection's result cache: 0 selects
	// DefaultCacheCapacity, negative disables caching entirely.
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

// colSnapshot freezes one membership epoch of a collection: the rows as
// an immutable Dataset, the per-shard partitions aliasing it, and (for
// stream-backed collections) the stable ID of each row. Static
// collections have exactly one snapshot for their whole life.
type colSnapshot struct {
	epoch uint64
	ds    *Dataset
	ids   []uint64 // stream-backed only; nil for static collections
	parts []*Dataset
	offs  []int // global row offset of each part
}

// partition splits the snapshot into p contiguous shard datasets
// aliasing the snapshot's storage (no copying).
func (s *colSnapshot) partition(p int) {
	ranges := shard.Split(s.ds.n, p)
	if len(ranges) <= 1 {
		return
	}
	s.parts = make([]*Dataset, len(ranges))
	s.offs = make([]int, len(ranges))
	d := s.ds.d
	for i, r := range ranges {
		s.parts[i] = &Dataset{vals: s.ds.vals[r.Lo*d : r.Hi*d : r.Hi*d], n: r.Len(), d: d}
		s.offs[i] = r.Lo
	}
}

// backing is where a collection's rows live and how a query over them
// is answered: an immutable Dataset, a live StreamSource, or a
// RemoteBackend. Everything above it — deadlines, admission, planning,
// the epoch-keyed result cache, stale fallback, stats — is the
// Collection's and is written once, against this interface.
type backing interface {
	// dims returns the dimensionality of the rows.
	dims() int
	// epoch returns the current membership epoch, without blocking.
	epoch() uint64
	// size returns the current number of rows.
	size() (int, error)
	// freeze pins the current membership: the snapshot a query is
	// keyed, answered and cached against. For local rows the fast path
	// (nothing changed since the last freeze) must not allocate.
	freeze(ctx context.Context) (*colSnapshot, error)
	// answer computes q over a frozen membership at the given fan-out.
	// The result's Epoch is the epoch it was actually computed at.
	answer(ctx context.Context, snap *colSnapshot, q Query, fanout int) (*QueryResult, error)
	// close releases what the backing owns (CloseOnDrop).
	close()
	// describe fills the backing-specific facets of a stats snapshot.
	describe(st *CollectionStats)
}

// local is the half the static and stream backings share: the frozen
// rows are in this process, so a query over them is answered by the
// Engine (execute).
type local struct{ eng *Engine }

func (l local) answer(ctx context.Context, snap *colSnapshot, q Query, fanout int) (*QueryResult, error) {
	res, err := l.execute(ctx, snap, q, fanout)
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
func (b *staticBacking) close()                                       {}
func (b *staticBacking) describe(*CollectionStats)                    {}

// streamBacking is a live StreamSource, materialized at most once per
// membership epoch.
type streamBacking struct {
	local
	src    StreamSource
	shards int

	snapMu sync.Mutex                  // serializes materialization
	snap   atomic.Pointer[colSnapshot] // current snapshot
}

func (b *streamBacking) dims() int     { return b.src.D() }
func (b *streamBacking) epoch() uint64 { return b.src.LiveEpoch() }

// size asks a source that can report its live count directly
// (stream.SkylineIndex can) and materializes a snapshot otherwise.
func (b *streamBacking) size() (int, error) {
	if src, ok := b.src.(interface{ Len() int }); ok {
		return src.Len(), nil
	}
	snap, err := b.freeze(context.Background())
	if err != nil {
		return 0, err
	}
	return snap.ds.n, nil
}

func (b *streamBacking) close() {
	if cl, ok := b.src.(interface{ Close() }); ok {
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

// snapRes carries a materialized snapshot across the goroutine boundary
// in freeze.
type snapRes struct {
	s   *colSnapshot
	err error
}

// freeze returns the source's current frozen membership, materializing
// it only when its epoch advanced. Materializing blocks on the source's
// write lock (a rebuilding stream can hold it for a while), so when ctx
// can expire the wait happens on a side goroutine and the query abandons
// it on time. The abandoned materialization still completes in the
// background and is cached, so the next query finds it warm. The fast
// paths — unchanged epoch, or an un-cancelable context — stay inline
// and allocation-free.
func (b *streamBacking) freeze(ctx context.Context) (*colSnapshot, error) {
	if s := b.snap.Load(); s != nil && s.epoch == b.src.LiveEpoch() {
		return s, nil
	}
	if ctx.Done() == nil {
		return b.materialize()
	}
	ch := make(chan snapRes, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- snapRes{err: panicErr(r, debug.Stack())}
			}
		}()
		s, err := b.materialize()
		ch <- snapRes{s: s, err: err}
	}()
	select {
	case r := <-ch:
		return r.s, r.err
	case <-ctx.Done():
		return nil, canceledErr(ctx.Err())
	}
}

// materialize takes a fresh snapshot of the source, unless a concurrent
// caller already did for the current epoch.
func (b *streamBacking) materialize() (*colSnapshot, error) {
	b.snapMu.Lock()
	defer b.snapMu.Unlock()
	if s := b.snap.Load(); s != nil && s.epoch == b.src.LiveEpoch() {
		return s, nil
	}
	vals, ids, epoch := b.src.LiveSnapshot()
	ds, err := DatasetFromFlat(vals, len(ids), b.src.D())
	if err != nil {
		return nil, err
	}
	s := &colSnapshot{epoch: epoch, ds: ds, ids: ids}
	s.partition(b.shards)
	b.snap.Store(s)
	return s, nil
}

// Collection is one named queryable point set inside a Store: an
// immutable Dataset, a live StreamSource or a RemoteBackend behind a
// single query surface, optionally sharded, with epoch-keyed result
// caching.
//
// Run and Submit are safe for concurrent use by any number of
// goroutines. Results are *QueryResult handles that may be shared by
// the cache across callers: they are immutable — never write to their
// Indices or Counts; use Result.Clone for a mutable copy.
type Collection struct {
	name   string
	shards int
	back   backing

	owner       *Store        // nil for collections outside a Store
	timeout     time.Duration // default per-query deadline (0 = none)
	closeOnDrop bool          // Drop/Close also closes the backing

	cmu      sync.Mutex
	entries  resultFIFO // results at the current epoch (one epoch at a time)
	stale    resultFIFO // last result per fingerprint, any epoch
	cacheCap int        // ≤ 0 disables caching
	hits     atomic.Uint64
	misses   atomic.Uint64

	costs costTracker // rolling per-algorithm execution costs

	planMu sync.Mutex       // guards plan creation and re-profiling
	plan   *planner.Planner // adaptive planner; nil until first needed

	inflight atomic.Int64 // queries currently executing via Run/Submit

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

// Name returns the name the collection is attached under.
func (c *Collection) Name() string { return c.name }

// Shards returns the partition count queries fan out over (1 =
// unsharded).
func (c *Collection) Shards() int { return c.shards }

// StreamBacked reports whether the collection is backed by a live
// StreamSource rather than an immutable Dataset.
func (c *Collection) StreamBacked() bool {
	_, ok := c.back.(*streamBacking)
	return ok
}

// Epoch returns the collection's current membership epoch: always 0
// for a static collection, the backing source's LiveEpoch for a
// stream-backed one, the workers' last agreed epoch for a
// cluster-backed one. Cached results are keyed by it.
func (c *Collection) Epoch() uint64 { return c.back.epoch() }

// N returns the current number of points.
func (c *Collection) N() (int, error) { return c.back.size() }

// D returns the dimensionality of the collection's points.
func (c *Collection) D() int { return c.back.dims() }

// fingerprint is the canonical cache key of a query: every field that
// can change the result, canonicalized (k ≤ 1 → 1, all-Min preference
// vectors → empty) so equivalent queries share an entry. Threads,
// ReuseIndices, Trace, and Progressive never enter the key — the first
// three don't change the result (Trace only changes how it is
// delivered), and progressive queries bypass the cache because their
// callbacks must fire on every Run.
type fingerprint struct {
	algo   Algorithm
	k      int
	alpha  int
	beta   int
	pivot  PivotStrategy
	seed   int64
	abl    Ablation
	nprefs int8
	// fan is the fan-out when it differs from the collection's default
	// (zero otherwise): the planner may downshift an Auto query to an
	// unsharded run, whose result order (the algorithm's natural order,
	// not ascending row order) must never be served to a query that ran
	// at the default fan-out.
	fan   int
	prefs [point.MaxDims]int8
}

// queryFingerprint canonicalizes q into a cache key for a d-dimensional
// collection, reporting false for queries that must not be cached:
// progressive delivery, and invalid shapes the execution path rejects —
// a wrong-length preference vector in particular must not be cacheable,
// or its all-Min spelling would collapse into the valid empty-prefs key
// and serve a cached success where a cold Run errors.
func queryFingerprint(q *Query, d int) (fingerprint, bool) {
	var fp fingerprint
	if q.Progressive != nil || q.SkybandK < 0 || len(q.Prefs) > point.MaxDims {
		return fp, false
	}
	// Auto never reaches the cache unresolved — run() rewrites the query
	// to the planned concrete algorithm before fingerprinting, so cached
	// entries are shared with explicit runs of the same plan. Seeing
	// Auto here (the stale-fallback path) means there is no resolved
	// plan to key on.
	if q.Algorithm == Auto {
		return fp, false
	}
	if len(q.Prefs) != 0 && len(q.Prefs) != d {
		return fp, false
	}
	fp.algo = q.Algorithm
	fp.k = q.SkybandK
	if fp.k < 1 {
		fp.k = 1
	}
	if q.Alpha > 0 {
		fp.alpha = q.Alpha
	}
	if q.Beta > 0 {
		fp.beta = q.Beta
	}
	fp.pivot = q.Pivot
	fp.seed = q.Seed
	fp.abl = q.Ablation
	for i, p := range q.Prefs {
		fp.prefs[i] = int8(p)
		if p != Min {
			fp.nprefs = int8(len(q.Prefs))
		}
	}
	if fp.nprefs == 0 {
		// All-Min (or empty) preference vectors are the same query;
		// clear the scratch so the two spellings share one key.
		fp.prefs = [point.MaxDims]int8{}
	}
	return fp, true
}

// QueryResult is the outcome of a Collection query: the Result plus the
// membership epoch it answers for and accessors resolving result
// positions back to rows and stream IDs.
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
	// Partial marks a degraded cluster answer: one or more workers
	// failed and the collection's partial policy merged the surviving
	// ones, so the rows placed on the failed workers are missing.
	// Always false for local collections and under the fail-fast
	// policy, where a worker failure is an error instead.
	Partial bool
	// Plan is the adaptive planner's decision for an Algorithm: Auto
	// query (also mirrored into Trace.Planner when the query was
	// traced); nil for queries that named their algorithm. It is set on
	// cache hits too — the decision was made even though the answer was
	// already known.
	Plan *PlannerTrace

	snap *colSnapshot // local collections: frozen snapshot rows resolve against
	rows [][]float64  // remote results: per-result-point coordinates
	rids []uint64     // remote results: per-result-point stream IDs (optional)

	// memo holds the result's encoded wire payloads. It is a pointer so
	// that every struct copy of a cached result (a traced hit, a planned
	// hit, a stale fallback) shares the one holder the cache entry owns;
	// nil on results the cache never stored.
	memo *payloadMemo
}

// PayloadSlots is the number of encoded-payload slots a cached result
// carries. The slots are opaque here; the serving layer assigns them
// (serve: wire format × omitValues).
const PayloadSlots = 4

// payloadMemo is the holder behind QueryResult.Payload: one published
// byte slice per slot. It has no capacity and no eviction of its own —
// it is reachable only through the cached QueryResult, so the bytes live
// and die with the cache entry.
type payloadMemo struct {
	slots [PayloadSlots]atomic.Pointer[[]byte]
}

// Payload returns the bytes published in slot, or nil when nothing has
// been (including on every result the cache does not hold). The bytes
// are shared by every caller that hits the same cached result: read-only,
// never written after publication.
func (r *QueryResult) Payload(slot int) []byte {
	if r.memo == nil {
		return nil
	}
	if p := r.memo.slots[slot].Load(); p != nil {
		return *p
	}
	return nil
}

// PublishPayload memoises b — an encoding of this result's rows, which
// are immutable, so it is valid for as long as the result is — in slot
// and returns the slot's bytes: b, or what a concurrent caller published
// first. The caller must not write to b afterwards. On a result the
// cache does not hold nothing is kept and b comes straight back.
func (r *QueryResult) PublishPayload(slot int, b []byte) []byte {
	if r.memo == nil {
		return b
	}
	if r.memo.slots[slot].CompareAndSwap(nil, &b) {
		return b
	}
	return *r.memo.slots[slot].Load()
}

// Len returns the number of result points.
func (r *QueryResult) Len() int { return len(r.Indices) }

// Row returns the coordinates of the p-th result point (original,
// un-staged values, whatever the query's preferences). The slice
// aliases the result's frozen snapshot — or, for cluster-backed
// collections, the coordinates shipped back with the worker responses:
// read-only, valid forever either way.
func (r *QueryResult) Row(p int) []float64 {
	if r.snap == nil {
		return r.rows[p]
	}
	return r.snap.ds.Row(r.Indices[p])
}

// ID returns the stable stream ID of the p-th result point of a
// stream-backed collection (it matches stream.ID). For static
// collections there are no IDs and ok is false — Indices themselves
// are the stable handle there.
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
// epoch-keyed cache without recomputing (and without allocating); a
// membership change invalidates automatically because the stale epoch
// no longer matches. See the immutability rule on QueryResult.
//
// For sharded collections the query fans out per shard over the
// Engine and the per-shard results are merged exactly; Result.Indices
// come back in ascending row order. Progressive delivery needs an
// unsharded collection (batches from concurrent shards would interleave
// meaninglessly) and bypasses the cache.
func (c *Collection) Run(ctx context.Context, q Query) (*QueryResult, error) {
	r, _, err := c.runReport(ctx, q)
	return r, err
}

// runReport is Run, also reporting whether this call's own cache lookup
// hit. The flag travels beside the result, never on it: the cached
// QueryResult is shared, and a hit must stay allocation-free.
func (c *Collection) runReport(ctx context.Context, q Query) (*QueryResult, bool, error) {
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	// Apply the collection's default deadline when the caller's context
	// carries none; an explicit caller deadline always wins.
	if c.timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.timeout)
			defer cancel()
		}
	}
	r, hit, err := c.run(ctx, q)
	if err != nil {
		r, err = c.staleFallback(&q, err)
		return r, false, err
	}
	return r, hit, nil
}

// run is runReport without the deadline and graceful-degradation
// wrappers: freeze the membership, resolve the plan, look the answer up,
// and on a miss have the backing compute it and cache what came back.
func (c *Collection) run(ctx context.Context, q Query) (*QueryResult, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, canceledErr(err)
	}
	if c.dropped.Load() {
		return nil, false, fmt.Errorf("%w: collection %q", ErrClosed, c.name)
	}
	snap, err := c.back.freeze(ctx)
	if err != nil {
		return nil, false, err
	}
	// Resolve Auto before fingerprinting: the cache is keyed by the
	// concrete plan, so Auto queries share entries with explicit runs of
	// the same algorithm, and a later hit is attributed to the plan that
	// computed it.
	fanout := max(1, len(snap.parts))
	var planTrace *PlannerTrace
	if q.Algorithm == Auto {
		fanout, planTrace = c.decide(snap, &q)
	}
	fp, cacheable := fingerprint{}, false
	if c.cacheCap > 0 {
		fp, cacheable = queryFingerprint(&q, c.back.dims())
		if len(snap.parts) > 1 && fanout <= 1 {
			// A planner-downshifted unsharded run returns the algorithm's
			// natural order, not the sharded ascending order — key it
			// separately (see fingerprint.fan).
			fp.fan = 1
		}
	}
	if cacheable {
		if r := c.lookup(fp, snap.epoch); r != nil {
			if q.Trace {
				r = r.withCacheHitTrace(&q)
				if planTrace != nil {
					r.Plan = planTrace
					r.Result.Trace.Planner = planTrace
				}
			} else if planTrace != nil {
				cp := *r
				cp.Plan = planTrace
				r = &cp
			}
			return r, true, nil
		}
	}
	start := time.Now()
	r, err := c.back.answer(ctx, snap, q, fanout)
	if err != nil {
		return nil, false, err
	}
	elapsed := time.Since(start)
	c.costs.record(q.Algorithm, elapsed, r.Stats.DominanceTests)
	if planTrace != nil {
		c.observePlan(planTrace, elapsed)
		r.Plan = planTrace
	}
	if r.Trace != nil {
		r.Trace.Epoch = r.Epoch
		r.Trace.Planner = planTrace
	}
	// A partial (degraded) answer is never cached — the missing rows may
	// be back on the next query, and a cache must not pin a degraded
	// answer for a healthy cluster.
	if cacheable && !r.Partial {
		// The holder goes on before any copy is taken, so what this first
		// caller encodes is what later hits are answered with.
		r.memo = new(payloadMemo)
		// The cache shares its entries across callers, traced and
		// untraced alike, so the stored copy never carries a trace or a
		// planner decision: both describe the first caller's run, not a
		// later hit.
		cached := r
		if r.Trace != nil || planTrace != nil {
			cp := *r
			cp.Result.Trace = nil
			cp.Plan = nil
			cached = &cp
		}
		// Keyed at the epoch the answer was actually computed at (remote
		// workers may have advanced past the epoch frozen above).
		c.store(fp, r.Epoch, cached)
	}
	return r, false, nil
}

// plannerSeed derives a deterministic per-collection seed for the
// planner's ε-greedy coin, so planning decisions replay identically for
// a given collection name and query order.
func plannerSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// plannerFor returns the collection's planner, creating it (profiling
// the snapshot) on first use, and re-profiling when the collection's
// size drifted ~4× from the profiled one (only a stream-backed
// collection's can) — skyline cardinality extrapolates on n, so a
// profile taken at 1k rows misprices the set at 100k.
func (c *Collection) plannerFor(snap *colSnapshot) *planner.Planner {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if c.plan == nil {
		prof := planner.ProfileFlat(snap.ds.vals, snap.ds.n, snap.ds.d)
		c.plan = planner.New(prof, planner.Config{Seed: plannerSeed(c.name)})
		return c.plan
	}
	prof := c.plan.Profile()
	n := snap.ds.n
	if prof.N > 0 && (n >= prof.N*4 || n*4 <= prof.N) {
		c.plan.SetProfile(planner.ProfileFlat(snap.ds.vals, snap.ds.n, snap.ds.d))
	}
	return c.plan
}

// decide resolves an Algorithm: Auto query in place: the planner picks
// the concrete algorithm, the fan-out (possibly overriding the
// configured shard count down to 1), and the α/β tuning — explicit
// caller-set tuning fields always win. It returns the fan-out to
// execute at and the decision trace. A membership whose rows live
// elsewhere (a remote backing) has nothing here to profile: the query
// goes out as Auto and each worker plans its own shard.
func (c *Collection) decide(snap *colSnapshot, q *Query) (int, *PlannerTrace) {
	if snap.ds == nil {
		return 1, nil
	}
	pl := c.plannerFor(snap)
	maxShards := 1
	// Progressive delivery needs an unsharded run, so the planner only
	// chooses between unsharded arms for it.
	if len(snap.parts) > 1 && q.Progressive == nil {
		maxShards = len(snap.parts)
	}
	dec := pl.Decide(c.costs.plannerRows(), maxShards)
	q.Algorithm = Hybrid
	if dec.Algorithm == planner.AlgoQFlow {
		q.Algorithm = QFlow
	}
	if q.Alpha <= 0 {
		q.Alpha = dec.Alpha
	}
	if q.Beta <= 0 && !q.Ablation.NoPrefilter {
		if dec.NoPrefilter {
			q.Ablation.NoPrefilter = true
		} else if dec.Beta > 0 {
			q.Beta = dec.Beta
		}
	}
	prof := pl.Profile()
	pt := &PlannerTrace{
		Class:       prof.Class,
		MeanRho:     prof.MeanRho,
		SkylineFrac: prof.SkylineFrac,
		SkylineEst:  prof.SkylineEst,
		SampleN:     prof.SampleN,
		Algorithm:   q.Algorithm.String(),
		Shards:      dec.Shards,
		Alpha:       q.Alpha,
		Beta:        q.Beta,
		NoPrefilter: q.Ablation.NoPrefilter,
		Explore:     dec.Explore,
		Reason:      dec.Reason,
	}
	if len(dec.Candidates) > 0 {
		pt.Candidates = make([]PlannerCandidate, len(dec.Candidates))
		for i, cand := range dec.Candidates {
			pt.Candidates[i] = PlannerCandidate{
				Algorithm: cand.Algorithm,
				Shards:    cand.Shards,
				Predicted: cand.Predicted,
				Source:    cand.Source,
				Samples:   cand.Samples,
			}
		}
	}
	return dec.Shards, pt
}

// observePlan books one executed Auto run's measured latency into the
// planner's arm history.
func (c *Collection) observePlan(pt *PlannerTrace, elapsed time.Duration) {
	c.planMu.Lock()
	pl := c.plan
	c.planMu.Unlock()
	if pl != nil {
		pl.Observe(pt.Algorithm, pt.Shards, elapsed)
	}
}

// withCacheHitTrace wraps a shared cached result in a shallow copy
// carrying a minimal cache-hit trace: the identity of the answer
// (algorithm, epoch, sizes) without work counters — the work happened
// on the query that populated the cache. The shared entry itself is
// never touched, so untraced hits stay allocation-free.
func (r *QueryResult) withCacheHitTrace(q *Query) *QueryResult {
	cp := *r
	cp.Result.Trace = &QueryTrace{
		Algorithm: q.Algorithm.String(),
		SkybandK:  q.SkybandK,
		CacheHit:  true,
		Stale:     r.Stale,
		Epoch:     r.Epoch,
		InputSize: r.Stats.InputSize,
		Output:    len(r.Indices),
	}
	return &cp
}

// staleFallback is graceful degradation: when a query that opted in
// with AllowStale fails because the Store is overloaded or its deadline
// passed (a mid-rebuild stream holding its lock past the deadline looks
// identical from here), serve the last cached result for the same query
// shape — possibly from an earlier epoch — marked Stale. Hard failures
// (bad query, closed collection, panic) never degrade.
func (c *Collection) staleFallback(q *Query, err error) (*QueryResult, error) {
	if !q.AllowStale || c.cacheCap <= 0 {
		return nil, err
	}
	if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrDeadlineExceeded) {
		return nil, err
	}
	fp, ok := queryFingerprint(q, c.D())
	if !ok {
		return nil, err
	}
	c.cmu.Lock()
	e, ok := c.stale.m[fp]
	c.cmu.Unlock()
	if !ok {
		return nil, err
	}
	// Shallow copy so the Stale mark never taints the shared cached
	// entry (which may still be current and served fresh by lookup).
	r := *e.r
	r.Stale = true
	if q.Trace {
		return r.withCacheHitTrace(q), nil
	}
	return &r, nil
}

type cacheEntry struct {
	epoch uint64
	r     *QueryResult
}

// resultFIFO is a capacity-bounded map of cached results that evicts in
// insertion order, so which shapes hit is a function of the query
// sequence alone — never of map iteration order.
type resultFIFO struct {
	m     map[fingerprint]cacheEntry
	order []fingerprint // keys of m, oldest first
}

// put stores e under fp, evicting the oldest entry when fp is new and
// the map already holds capacity entries.
func (f *resultFIFO) put(fp fingerprint, e cacheEntry, capacity int) {
	if _, ok := f.m[fp]; !ok {
		if len(f.order) >= capacity {
			delete(f.m, f.order[0])
			f.order = append(f.order[:0], f.order[1:]...)
		}
		f.order = append(f.order, fp)
	}
	f.m[fp] = e
}

// lookup serves a cache hit, or nil on miss/stale. The hit path is
// allocation-free.
func (c *Collection) lookup(fp fingerprint, epoch uint64) *QueryResult {
	c.cmu.Lock()
	e, ok := c.entries.m[fp]
	c.cmu.Unlock()
	if ok && e.epoch == epoch {
		c.hits.Add(1)
		return e.r
	}
	c.misses.Add(1)
	return nil
}

// store inserts a freshly computed result. Entries at other epochs are
// purged on every insert, not just at capacity: a stale entry can never
// hit again (lookup requires the current epoch) yet pins its epoch's
// whole materialized snapshot — for stream-backed collections that is a
// full copy of the live set. So entries only ever holds one epoch, and
// its oldest entry speaks for all of them. If the cache is still full
// afterwards the oldest entry is evicted.
func (c *Collection) store(fp fingerprint, epoch uint64, r *QueryResult) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if o := c.entries.order; len(o) > 0 && c.entries.m[o[0]].epoch != epoch {
		clear(c.entries.m)
		c.entries.order = o[:0]
	}
	c.entries.put(fp, cacheEntry{epoch: epoch, r: r}, c.cacheCap)
	// The stale side map keeps the latest result per query shape across
	// epochs, feeding AllowStale degradation. It never pins more than
	// cacheCap snapshots.
	c.stale.put(fp, cacheEntry{epoch: epoch, r: r}, c.cacheCap)
}

// CacheStats reports a collection's result-cache counters. Like the
// other stats types below it carries its own JSON tags: it is the wire
// form too (serve.CollectionInfo embeds it), durations as integer
// nanoseconds.
type CacheStats struct {
	// Hits counts queries served from the cache; Misses counts cache
	// lookups that had to compute (stale epochs included).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Entries is the current number of cached results.
	Entries int `json:"entries"`
}

// CacheStats returns the collection's cache counters.
func (c *Collection) CacheStats() CacheStats {
	c.cmu.Lock()
	n := len(c.entries.m)
	c.cmu.Unlock()
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}

// CollectionStats is a one-call snapshot of a collection's serving
// state — everything an info endpoint or metrics scrape needs, gathered
// together instead of poking N, D, Epoch, CacheStats, and the admission
// counters individually and racing mutations in between.
type CollectionStats struct {
	// Name is the name the collection is attached under.
	Name string
	// N is the current number of points; D their dimensionality.
	N, D int
	// Epoch is the membership epoch (always 0 for static collections).
	Epoch uint64
	// Shards is the partition count queries fan out over (1 = unsharded).
	Shards int
	// StreamBacked reports a live StreamSource backing.
	StreamBacked bool
	// Cache holds the result-cache counters.
	Cache CacheStats
	// Inflight is the number of queries executing on the collection
	// right now (Run and admitted Submits).
	Inflight int64
	// Costs holds the collection's rolling per-algorithm execution
	// costs (count, mean/p50/p99 latency, mean dominance tests) — the
	// planner's input. Sorted by algorithm name; nil before the first
	// executed query.
	Costs []AlgorithmCost
	// Planner holds the adaptive planner's data profile and decision
	// tallies; nil until the first Algorithm: Auto query (or, for static
	// collections, after the eager profile at Attach).
	Planner *PlannerStats
	// Durability holds WAL and checkpoint statistics for collections
	// whose backing source persists itself (a durable
	// stream.SkylineIndex); nil otherwise.
	Durability *DurabilityStats
	// Placement describes the worker placement, health, and fan-out
	// counters of a cluster-backed collection; nil for local ones.
	Placement *PlacementStats
}

// PlannerStats is the observable state of a collection's adaptive
// planner: the attach-time data profile and how its decisions have
// distributed so far.
type PlannerStats struct {
	// Class is the profiled correlation class ("correlated",
	// "independent", "anticorrelated"); MeanSpearman the mean pairwise
	// Spearman rank correlation it derives from.
	Class        string  `json:"class"`
	MeanSpearman float64 `json:"meanSpearman"`
	// SkylineFrac and SkylineEst are the estimated skyline fraction and
	// cardinality of the full set; SampleN the profiled sample size.
	SkylineFrac float64 `json:"skylineFrac"`
	SkylineEst  int     `json:"skylineEst"`
	SampleN     int     `json:"sampleN"`
	// Decisions tallies Auto decisions by chosen plan, sorted for
	// stable rendering.
	Decisions []PlannerDecision `json:"decisions,omitempty"`
}

// PlannerDecision is one (plan, explore-mode) decision tally.
type PlannerDecision struct {
	Algorithm string `json:"algorithm"`
	Shards    int    `json:"shards"`
	Explore   bool   `json:"explore,omitempty"`
	Count     uint64 `json:"count"`
}

// DurabilityStats reports the persistence-layer counters of a durable
// collection backing: WAL fsync work, on-disk segment footprint, and
// checkpoint cost. stream.SkylineIndex implements the provider side;
// anything else backing a Collection can too.
type DurabilityStats struct {
	// WALFsyncs counts fsync calls the WAL issued; WALFsyncTime is the
	// total wall-clock time spent inside them.
	WALFsyncs    uint64        `json:"walFsyncs"`
	WALFsyncTime time.Duration `json:"walFsyncNs"`
	// WALSegments is the current number of on-disk WAL segments.
	WALSegments int `json:"walSegments"`
	// Checkpoints counts checkpoints taken; CheckpointTime is the total
	// time spent writing them and LastCheckpoint the duration of the
	// most recent one.
	Checkpoints    uint64        `json:"checkpoints"`
	CheckpointTime time.Duration `json:"checkpointNs"`
	LastCheckpoint time.Duration `json:"lastCheckpointNs,omitempty"`
}

// durabilityProvider is the optional StreamSource facet a durable
// backing implements to surface persistence counters (ok reports
// whether durability is configured at all).
type durabilityProvider interface {
	DurabilityStats() (DurabilityStats, bool)
}

// Stats returns a consistent snapshot of the collection's serving
// state. For a stream-backed collection whose source can report its
// live count directly (stream.SkylineIndex can) nothing is
// materialized; otherwise N comes from the current frozen snapshot,
// materializing it if the membership epoch advanced.
func (c *Collection) Stats() (CollectionStats, error) {
	st := CollectionStats{
		Name:     c.name,
		D:        c.D(),
		Shards:   c.shards,
		Cache:    c.CacheStats(),
		Inflight: c.inflight.Load(),
		Costs:    c.costs.stats(),
	}
	c.planMu.Lock()
	pl := c.plan
	c.planMu.Unlock()
	if pl != nil {
		prof := pl.Profile()
		ps := &PlannerStats{
			Class:        prof.Class,
			MeanSpearman: prof.MeanRho,
			SkylineFrac:  prof.SkylineFrac,
			SkylineEst:   prof.SkylineEst,
			SampleN:      prof.SampleN,
		}
		for _, dc := range pl.DecisionCounts() {
			ps.Decisions = append(ps.Decisions, PlannerDecision{
				Algorithm: dc.Algorithm,
				Shards:    dc.Shards,
				Explore:   dc.Explore,
				Count:     dc.Count,
			})
		}
		st.Planner = ps
	}
	c.back.describe(&st)
	if c.dropped.Load() {
		return st, fmt.Errorf("%w: collection %q", ErrClosed, c.name)
	}
	st.Epoch = c.back.epoch()
	var err error
	st.N, err = c.back.size()
	return st, err
}

// execute computes a query over one frozen snapshot: directly for
// unsharded collections (or when the planner downshifted fanout to 1),
// fan-out + exact merge (shard.Merge) for sharded ones.
func (l local) execute(ctx context.Context, snap *colSnapshot, q Query, fanout int) (Result, error) {
	if len(snap.parts) <= 1 || fanout <= 1 {
		q.ReuseIndices = false // results may outlive any engine context
		return l.eng.exec(ctx, snap.ds, q)
	}
	if q.Progressive != nil {
		return Result{}, fmt.Errorf("%w: progressive delivery needs an unsharded collection", ErrBadQuery)
	}
	start := time.Now()

	// Fan out one engine run per shard; each leases its own computation
	// context from the engine's free-list. Shard runs never build their
	// own traces — the composite trace below is assembled from their
	// always-on stats.
	q.ReuseIndices = false
	traced := q.Trace
	q.Trace = false
	results := make([]Result, len(snap.parts))
	errs := make([]error, len(snap.parts))
	var wg sync.WaitGroup
	for i := range snap.parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// exec contains panics from inside the engine; this recover
			// is the belt over anything outside it, so a poisoned shard
			// can only ever fail its own query — never leak a panic onto
			// an unsupervised goroutine and crash the process.
			defer func() {
				if r := recover(); r != nil {
					errs[i] = panicErr(r, debug.Stack())
				}
			}()
			results[i], errs[i] = l.eng.exec(ctx, snap.parts[i], q)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}

	// Gather the candidate rows — the union of the per-shard bands —
	// under the query's preferences, through the same view the shards
	// read their rows through: the merge recount must compare in the
	// transformed space they computed in.
	ops, err := q.opsInto(nil)
	if err != nil {
		return Result{}, err
	}
	var v point.View
	v.Reset(snap.ds.vals, snap.ds.n, snap.ds.d, ops)
	de := v.D()
	parts := make([]shard.Part, len(results))
	nc := 0
	var dts uint64
	for i, r := range results {
		parts[i] = shard.Part{Off: snap.offs[i], Idx: r.Indices}
		nc += len(r.Indices)
		dts += r.Stats.DominanceTests
	}
	buf := make([]float64, nc*de)
	pos := 0
	for _, p := range parts {
		for _, li := range p.Idx {
			v.CopyRow(buf[pos*de:(pos+1)*de], p.Off+li)
			pos++
		}
	}
	m, err := shard.Merge(ctx, parts, buf, de, q.SkybandK, l.eng.recount, &dts)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			err = canceledErr(cerr)
		}
		return Result{}, err
	}

	res := Result{Indices: m.Rows, Counts: m.Counts}
	res.Stats = Stats{
		DominanceTests: dts,
		SkylineSize:    len(m.Rows),
		InputSize:      snap.ds.n,
		Threads:        l.eng.threads,
		Elapsed:        time.Since(start),
	}
	// Aggregate the per-shard work counters and phase timings into the
	// collection-level stats (phase durations sum across shards, so they
	// read as total work, not wall clock).
	for _, r := range results {
		res.Stats.PrefilterPruned += r.Stats.PrefilterPruned
		res.Stats.Phase1Survivors += r.Stats.Phase1Survivors
		res.Stats.Phase2Survivors += r.Stats.Phase2Survivors
		res.Stats.SortTime += r.Stats.SortTime
		res.Stats.BusyTime += r.Stats.BusyTime
		res.Stats.Timings.add(r.Stats.Timings)
	}
	if traced {
		tr := traceFromResult(q.Algorithm, q.SkybandK, &res)
		tr.MergePath = m.Path
		tr.Shards = make([]ShardTrace, len(results))
		for i, r := range results {
			tr.Shards[i] = ShardTrace{
				Shard:           i,
				InputSize:       r.Stats.InputSize,
				Output:          len(r.Indices),
				DominanceTests:  r.Stats.DominanceTests,
				PrefilterPruned: r.Stats.PrefilterPruned,
				Elapsed:         r.Stats.Elapsed,
			}
		}
		res.Trace = tr
	}
	return res, nil
}

// recount is the shard.Recount every merge in this package hands
// shard.Merge: one engine run over the candidate union.
func (e *Engine) recount(ctx context.Context, vals []float64, n, d, k int) ([]int, []int32, uint64, error) {
	ds, err := DatasetFromFlat(vals, n, d)
	if err != nil {
		return nil, nil, 0, err
	}
	res, err := e.exec(ctx, ds, Query{SkybandK: k})
	return res.Indices, res.Counts, res.Stats.DominanceTests, err
}

// Future is the handle of one asynchronously submitted query. Wait (or
// Done + Result) delivers the outcome exactly as Run would have.
type Future struct {
	done chan struct{}
	res  *QueryResult
	hit  bool
	err  error
}

// CacheHit blocks until the query finishes and reports whether it was
// answered by its own lookup in the collection's result cache — the
// call that did the lookup says so, which two reads of the shared
// CacheStats counters around a Submit cannot when requests overlap. A
// stale fallback is not a hit.
func (f *Future) CacheHit() bool {
	<-f.done
	return f.hit
}

// Done returns a channel closed when the query has finished.
func (f *Future) Done() <-chan struct{} { return f.done }

// Result blocks until the query finishes and returns its outcome.
func (f *Future) Result() (*QueryResult, error) {
	<-f.done
	return f.res, f.err
}

// Wait blocks until the query finishes or ctx is done, whichever comes
// first. A ctx abort abandons only the wait — the submitted query keeps
// running under its own context and the Future stays usable.
func (f *Future) Wait(ctx context.Context) (*QueryResult, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return nil, canceledErr(ctx.Err())
	}
}

// Submit starts the query on its own goroutine and returns a Future for
// it — the async form of Run, sharing the same cache and shard fan-out.
// The query runs under ctx: cancel it to abandon the computation.
//
// Submissions pass through the Store's admission control
// (StoreOptions.MaxInflight/MaxQueue): beyond the queue bound the
// Future fails immediately with ErrOverloaded, and after Store.Close it
// fails immediately with ErrClosed — both decided synchronously on the
// submitting goroutine, never by a panic. Failed admission still honors
// Query.AllowStale.
func (c *Collection) Submit(ctx context.Context, q Query) *Future {
	f := &Future{done: make(chan struct{})}
	adm, err := c.owner.beginAdmit()
	if err != nil {
		f.res, f.err = c.staleFallback(&q, err)
		close(f.done)
		return f
	}
	go func() {
		defer close(f.done)
		// A panic anywhere below must resolve this Future, not crash the
		// process or wedge Wait; it poisons only this query.
		defer func() {
			if r := recover(); r != nil {
				f.res, f.err = nil, panicErr(r, debug.Stack())
			}
			adm.release()
		}()
		if err := adm.wait(ctx); err != nil {
			f.res, f.err = c.staleFallback(&q, err)
			return
		}
		f.res, f.hit, f.err = c.runReport(ctx, q)
	}()
	return f
}

// SubmitBatch submits every query concurrently and returns their
// Futures in order — the batch form of Submit for callers answering
// one request with several queries (multiple k cuts, several subspace
// preferences, …). The engine's context free-list and shared worker
// pool keep the fan-out from oversubscribing the machine; the Store's
// admission bounds apply per query, so an oversized batch partially
// admits and the overflow fails fast with ErrOverloaded.
func (c *Collection) SubmitBatch(ctx context.Context, qs []Query) []*Future {
	fs := make([]*Future, len(qs))
	for i, q := range qs {
		fs[i] = c.Submit(ctx, q)
	}
	return fs
}

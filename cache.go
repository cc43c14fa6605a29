package skybench

import (
	"errors"
	"sync/atomic"

	"skybench/internal/point"
)

// fingerprint is the canonical cache key of a query: every field that
// can change the result, canonicalized (k ≤ 1 → 1, all-Min preference
// vectors → empty) so equivalent queries share an entry. Threads,
// ReuseIndices, Trace, and Progressive never enter the key — the first
// three don't change the result (Trace only changes how it is
// delivered), and progressive queries bypass the cache because their
// callbacks must fire on every Run.
type fingerprint struct {
	algo  Algorithm
	k     int
	alpha int
	beta  int
	pivot PivotStrategy
	seed  int64
	abl   Ablation
	prefs canonPrefs
}

// canonPrefs is a preference vector in canonical, comparable form: all
// spellings of the same preferences are equal. n is the vector's length,
// or zero when every dimension is minimized — an empty vector and an
// all-Min one are the same preferences.
type canonPrefs struct {
	n int8
	p [point.MaxDims]int8
}

// canonicalPrefs canonicalizes prefs for d-dimensional rows, reporting
// false for a vector of the wrong length, which is no preference at all:
// its all-Min spelling must not collapse into the valid empty one.
// Entries are not validated — an invalid value equals no valid vector.
func canonicalPrefs(prefs []Pref, d int) (canonPrefs, bool) {
	var c canonPrefs
	if len(prefs) != 0 && len(prefs) != d || len(prefs) > point.MaxDims {
		return c, false
	}
	for i, p := range prefs {
		c.p[i] = int8(p)
		if p != Min {
			c.n = int8(len(prefs))
		}
	}
	if c.n == 0 {
		c.p = [point.MaxDims]int8{}
	}
	return c, true
}

// queryFingerprint canonicalizes q into a cache key for a d-dimensional
// collection, reporting false for queries that must not be cached:
// progressive delivery, and invalid shapes the execution path rejects —
// a wrong-length preference vector in particular must not be cacheable,
// or its all-Min spelling would collapse into the valid empty-prefs key
// and serve a cached success where a cold Run errors.
func queryFingerprint(q *Query, d int) (fingerprint, bool) {
	var fp fingerprint
	if q.Progressive != nil || q.SkybandK < 0 {
		return fp, false
	}
	prefs, ok := canonicalPrefs(q.Prefs, d)
	if !ok {
		return fp, false
	}
	fp.prefs = prefs
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
	return fp, true
}

// payloadSlots is the number of encoded-payload slots a cached result
// carries. The slots are opaque here; the serving layer assigns them
// (serve: wire format × omitValues).
const payloadSlots = 4

// payloadMemo is the holder behind QueryResult.Payload: one published
// byte slice per slot. It has no capacity and no eviction of its own —
// it is reachable only through the cached QueryResult, so the bytes live
// and die with the cache entry.
type payloadMemo struct {
	slots [payloadSlots]atomic.Pointer[[]byte]
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

// withCacheHitTrace wraps a shared cached result in a shallow copy
// carrying plan (see Collection.resolve) and a minimal cache-hit trace:
// the identity of the answer (algorithm, epoch, sizes) without work
// counters — the work happened on the query that populated the cache.
// The shared entry itself is never touched, so untraced hits stay
// allocation-free.
func (r *QueryResult) withCacheHitTrace(q *Query, plan *PlannerTrace) *QueryResult {
	cp := *r
	cp.Plan = plan
	cp.Result.Trace = &QueryTrace{
		Algorithm: q.Algorithm.String(),
		SkybandK:  q.SkybandK,
		CacheHit:  true,
		Stale:     r.Stale,
		Epoch:     r.Epoch,
		InputSize: r.Stats.InputSize,
		Output:    len(r.Indices),
		Planner:   plan,
	}
	return &cp
}

// staleFallback is graceful degradation: when a query that opted in
// with AllowStale fails because the Store is overloaded or its deadline
// passed (a mid-rebuild stream holding its lock past the deadline looks
// identical from here), serve the last cached result for the same query
// shape — possibly from an earlier epoch — marked Stale. q and plan are
// as resolve left them, so an Auto query finds the entry its run stored.
// Hard failures (bad query, closed collection, panic) never degrade.
func (c *Collection) staleFallback(q *Query, plan *PlannerTrace, err error) (*QueryResult, error) {
	if !q.AllowStale {
		return nil, err
	}
	if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrDeadlineExceeded) {
		return nil, err
	}
	fp, ok := c.key(q)
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
	// entry (which may still be current and served fresh by lookup). A
	// stale answer is not a hit.
	r := *e.r
	r.Stale = true
	r.CacheHit = false
	if q.Trace {
		return r.withCacheHitTrace(q, plan), nil
	}
	r.Plan = plan
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
// hit again (lookup requires the current epoch) yet pins what it
// resolves its rows against — a full copy of the live set for an engine
// run over a stream-backed collection, the band's rows for an answer
// read from the source's maintained band or shipped back by remote
// workers. So entries only ever holds one epoch, and its oldest entry
// speaks for all of them. If the cache is still full afterwards the
// oldest entry is evicted.
//
// The key is the live epoch for band answers too, although the band
// itself survives most mutations (a stream.SkylineIndex has a second,
// band-membership epoch that moves on about one mutation in five): an
// answer's Indices and Stats.InputSize are live-row positions and the
// live count, functions of the live membership, so an entry kept across
// a non-band insert or delete would serve stale ones.
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
	// cacheCap results' rows.
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

// Package stream maintains skylines incrementally under live mutation.
//
// The one-shot algorithms of package skybench recompute a skyline from
// an immutable Dataset on every query; a service facing continuous
// writes (price updates, sensor feeds, sliding time windows) cannot
// afford that. SkylineIndex keeps the exact skyline current across
// Insert and Delete in (typically) microseconds per update: an inserted
// point is tested against the current skyline with the flat dominance
// kernels the one-shot hot paths use; deleting a skyline point
// re-resolves only the points it exclusively dominated (its "bucket"),
// and when mutation churn degrades the structure the index escalates to
// one full Hybrid recompute through a skybench.Engine — amortized over
// the updates that made it necessary.
//
// Quick start:
//
//	ix, _ := stream.New(3, stream.Config{})
//	id, _ := ix.Insert([]float64{0.2, 0.7, 0.1})
//	snap := ix.Snapshot()           // zero-copy, safe while writers run
//	for i := 0; i < snap.Len(); i++ {
//		_ = snap.Row(i)             // a current skyline point
//	}
//	ix.Delete(id)
//
// Windowed streams use NewWindow(capacity, ...), whose Push evicts
// oldest-first once the window is full. Per-dimension preferences
// (skybench.Min, Max, Ignore) are honored exactly as in Query.Prefs, and
// SkylineIndex.OnDelta subscribes to skyline membership changes.
//
// Concurrency: mutating methods serialize on an internal lock (one
// writer at a time makes that lock uncontended); any number of
// goroutines may concurrently call Snapshot and read the snapshots they
// were handed, without copying — a snapshot is immutable and stays valid
// forever, it just goes stale.
package stream

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"skybench"
	"skybench/internal/faults"
	"skybench/internal/point"
	istream "skybench/internal/stream"
)

// ID identifies a point in a SkylineIndex for the lifetime of the index.
// IDs are assigned by Insert, never reused, and never zero.
type ID uint64

// Point pairs a point's ID with its coordinates in a delta callback.
// Values aliases index-internal storage and is valid only for the
// duration of the callback; copy it to retain it.
type Point struct {
	ID     ID
	Values []float64
}

// Config configures a SkylineIndex.
type Config struct {
	// Prefs states the per-dimension preference, exactly as
	// skybench.Query.Prefs: empty minimizes every dimension; otherwise
	// one entry per dimension, at least one of them not Ignore.
	// Preferences are fixed for the life of the index — the points are
	// stored pre-staged so the per-update hot path never sees them.
	Prefs []skybench.Pref
	// SkybandK generalizes the index from the skyline to the k-skyband,
	// exactly as skybench.Query.SkybandK: the maintained set is every
	// live point strictly dominated by fewer than SkybandK others, with
	// exact per-point dominator counts in Snapshot.Count. 0 and 1 both
	// select the plain skyline. Fixed for the life of the index; a
	// deletion that drops an excluded point's dominator count below
	// SkybandK promotes it back into the band. Per-point bookkeeping is
	// O(SkybandK), so very large values are better served by whole-set
	// queries. Negative values are invalid.
	SkybandK int
	// Engine, when non-nil, serves escalated recomputes (sharing its
	// context free-list and worker pool with any other load it carries;
	// a recompute leases its share of the pool like any other run).
	// When nil the index lazily creates a private Engine on first
	// escalation and closes it on Close.
	Engine *skybench.Engine
	// Durable, when non-nil, makes the index crash-safe: every mutation
	// is written ahead to a segmented WAL in Durable.Dir, periodically
	// compacted into checkpoints, and stream.Recover restores the index
	// after a crash. See Durability for the policies. New refuses a
	// directory that already holds durable state — Recover is the only
	// way back into existing state.
	Durable *Durability
}

// SkylineIndex is a mutable set of points whose skyline is maintained
// incrementally. See the package comment for the concurrency contract.
type SkylineIndex struct {
	d, de    int
	k        int // band parameter (1 = skyline)
	ops      []point.PrefOp
	prefs    []skybench.Pref // as configured, for the durable meta file
	identity bool

	epoch   atomic.Uint64
	version atomic.Uint64 // live-set membership epoch (every insert/delete)
	snap    atomic.Pointer[Snapshot]

	mu      sync.Mutex
	core    *istream.Index
	ids     []ID // slot-indexed
	orig    []float64
	loc     map[ID]int32
	next    ID
	stage   []float64
	eng     *skybench.Engine
	ownEng  bool
	closed  bool
	entered []Point
	left    []Point
	nEnter  uint64
	nLeave  uint64

	subs   []deltaSub // OnDelta registrations, in registration order
	subSeq uint64

	dur           *durableState    // nil for in-memory indexes
	rebuildFaults *faults.Injector // test hook: "stream.rebuild" site
}

// deltaSub is one cancelable OnDelta registration.
type deltaSub struct {
	id uint64
	fn func(entered, left []Point)
}

// New creates an empty SkylineIndex over d-dimensional points.
func New(d int, cfg Config) (*SkylineIndex, error) {
	if d < 1 {
		return nil, fmt.Errorf("%w: stream points must have at least one dimension", skybench.ErrBadDataset)
	}
	if d > point.MaxDims {
		return nil, fmt.Errorf("%w: at most %d dimensions supported, got %d", skybench.ErrBadDataset, point.MaxDims, d)
	}
	if cfg.SkybandK < 0 {
		return nil, fmt.Errorf("%w: negative SkybandK %d", skybench.ErrBadQuery, cfg.SkybandK)
	}
	k := cfg.SkybandK
	if k < 1 {
		k = 1
	}
	x := &SkylineIndex{
		d:        d,
		de:       d,
		k:        k,
		identity: true,
		loc:      make(map[ID]int32),
		next:     1,
		eng:      cfg.Engine,
	}
	if len(cfg.Prefs) != 0 {
		if len(cfg.Prefs) != d {
			return nil, fmt.Errorf("%w: %d preferences for %d dimensions", skybench.ErrBadQuery, len(cfg.Prefs), d)
		}
		ops, err := prefOps(cfg.Prefs)
		if err != nil {
			return nil, err
		}
		if !point.IdentityOps(ops) {
			de := point.EffectiveDims(ops)
			if de == 0 {
				return nil, fmt.Errorf("%w: preferences ignore every dimension", skybench.ErrBadQuery)
			}
			x.ops, x.de, x.identity = ops, de, false
			x.stage = make([]float64, de)
		}
	}
	x.core = istream.New(x.de, istream.Options{
		K:       k,
		Rebuild: x.engineRebuild,
		OnEnter: func(slot int32) {
			x.entered = append(x.entered, Point{ID: x.ids[slot], Values: x.origRow(slot)})
		},
		OnLeave: func(slot int32) {
			x.left = append(x.left, Point{ID: x.ids[slot], Values: x.origRow(slot)})
		},
	})
	x.prefs = append([]skybench.Pref(nil), cfg.Prefs...)
	if cfg.Durable != nil {
		if err := x.initDurable(*cfg.Durable); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// prefOps maps public preferences onto staging ops. It must mirror
// skybench.Pref.op exactly; the oracle property tests cross-check the
// two surfaces so they cannot drift silently.
func prefOps(prefs []skybench.Pref) ([]point.PrefOp, error) {
	ops := make([]point.PrefOp, len(prefs))
	for i, p := range prefs {
		switch p {
		case skybench.Min:
			ops[i] = point.PrefKeep
		case skybench.Max:
			ops[i] = point.PrefNegate
		case skybench.Ignore:
			ops[i] = point.PrefDrop
		default:
			return nil, fmt.Errorf("%w: invalid preference %d on dimension %d", skybench.ErrBadQuery, int(p), i)
		}
	}
	return ops, nil
}

// engineRebuild is the escalation hook handed to the core: a full
// skyline (or k-skyband) recompute over the staged live set, served by
// the Engine's context free-list so repeated escalations reuse warm
// scratch. It makes one attempt: an engine panic would repeat on the
// same rows and a closed engine or invalid input stays so, so on any
// error it returns nil and the core's placement pass probes every row
// itself.
func (x *SkylineIndex) engineRebuild(vals []float64, n int) ([]int, []int32) {
	if x.eng == nil {
		x.eng = skybench.NewEngine(0)
		x.ownEng = true
	}
	if faults.Check(x.rebuildFaults, "stream.rebuild") != nil {
		return nil, nil
	}
	ds, err := skybench.DatasetFromFlat(vals, n, x.de)
	if err != nil {
		return nil, nil
	}
	q := skybench.Query{ReuseIndices: true}
	if x.k > 1 {
		q.SkybandK = x.k
	}
	// ReuseIndices is safe here: the core consumes the indices (and
	// counts) before this Engine serves its next query, and the index
	// lock serializes escalations.
	res, err := x.eng.Run(context.Background(), ds, q)
	if err != nil {
		return nil, nil
	}
	return res.Indices, res.Counts
}

// D returns the dimensionality of the indexed points.
func (x *SkylineIndex) D() int { return x.d }

// Insert adds a point (copying p) and returns its ID. The point must
// have exactly D finite values. On a durable index the insert is
// logged before it is applied; a failed log append rejects the insert
// and leaves the index unchanged.
func (x *SkylineIndex) Insert(p []float64) (ID, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return 0, fmt.Errorf("%w: stream.SkylineIndex", skybench.ErrClosed)
	}
	if err := x.validatePoint(p); err != nil {
		return 0, err
	}
	if x.dur != nil {
		// The lock is held, so the ID the insert will assign is x.next.
		if err := x.durInsert(x.next, p); err != nil {
			return 0, err
		}
	}
	id := x.insertLocked(x.next, p)
	if x.dur != nil {
		x.durApplied(1)
	}
	return id, nil
}

// InsertBatch inserts every row (validating them all first, so an error
// means no mutation happened) and returns their IDs in order. On a
// durable index the whole batch is logged as one group commit — under
// Durability.FsyncAlways a batch costs a single fsync — and a failed
// append rejects the whole batch.
func (x *SkylineIndex) InsertBatch(rows [][]float64) ([]ID, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return nil, fmt.Errorf("%w: stream.SkylineIndex", skybench.ErrClosed)
	}
	for i, p := range rows {
		if err := x.validatePoint(p); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	if x.dur != nil && len(rows) > 0 {
		if err := x.durInsertBatch(rows); err != nil {
			return nil, err
		}
	}
	ids := make([]ID, len(rows))
	for i, p := range rows {
		ids[i] = x.insertLocked(x.next, p)
	}
	if x.dur != nil && len(rows) > 0 {
		x.durApplied(len(rows))
	}
	return ids, nil
}

// insertLocked inserts p under id: x.next for a live insert, the
// recorded ID for a replayed one. Recovery replays before the durable
// state is attached, so nothing is re-logged.
func (x *SkylineIndex) insertLocked(id ID, p []float64) ID {
	x.entered, x.left = x.entered[:0], x.left[:0]
	// Alloc and Place are split so the slot's ID and original values are
	// on record before membership callbacks fire.
	x.core.Place(x.allocSlot(id, p))
	x.version.Add(1)
	x.finishOp()
	return id
}

// allocSlot stages p into a fresh, unplaced core slot, records the
// wrapper-side metadata for it — its ID and, under non-identity
// preferences, the original (un-staged) coordinates snapshots and
// callbacks hand out — and returns the slot.
func (x *SkylineIndex) allocSlot(id ID, p []float64) int32 {
	staged := p
	if !x.identity {
		point.StagePrefs(x.stage, p, 1, x.d, x.ops)
		staged = x.stage
	}
	slot := x.core.Alloc(staged)
	if n := int(slot) + 1; n > len(x.ids) {
		x.ids = append(x.ids, make([]ID, n-len(x.ids))...)
		if !x.identity {
			x.orig = append(x.orig, make([]float64, n*x.d-len(x.orig))...)
		}
	}
	x.ids[slot] = id
	x.loc[id] = slot
	if !x.identity {
		copy(x.orig[int(slot)*x.d:], p)
	}
	x.next = max(x.next, id+1)
	return slot
}

// origRow returns the original-space coordinates of a live slot.
func (x *SkylineIndex) origRow(slot int32) []float64 {
	if x.identity {
		return x.core.Row(slot)
	}
	return x.orig[int(slot)*x.d : (int(slot)+1)*x.d : (int(slot)+1)*x.d]
}

// Delete removes the point with the given ID, reporting whether it was
// present. Deleting a skyline point may re-admit points it dominated
// (and may escalate to a full recompute, once re-resolution work since
// the last one exceeds half the live set).
// On a durable index a delete whose log append fails is rejected —
// false with the point still live; Err reports why.
func (x *SkylineIndex) Delete(id ID) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return false
	}
	slot, ok := x.loc[id]
	if !ok {
		return false
	}
	if x.dur != nil {
		if err := x.durDelete(id); err != nil {
			return false
		}
	}
	x.deleteSlotLocked(id, slot)
	if x.dur != nil {
		x.durApplied(1)
	}
	return true
}

// deleteSlotLocked removes a live slot: the shared tail of Delete and
// WAL replay.
func (x *SkylineIndex) deleteSlotLocked(id ID, slot int32) {
	x.entered, x.left = x.entered[:0], x.left[:0]
	x.core.Delete(slot)
	delete(x.loc, id)
	x.version.Add(1)
	x.finishOp()
}

// rebuild forces one full recompute and internal rebalance, as
// escalation would; the tests drive it.
func (x *SkylineIndex) rebuild() {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return
	}
	x.entered, x.left = x.entered[:0], x.left[:0]
	x.core.Rebuild()
	x.finishOp()
}

// finishOp publishes the effects of one mutation: the epoch advances
// when skyline membership changed (invalidating cached snapshots) and
// the delta subscribers fire.
func (x *SkylineIndex) finishOp() {
	if len(x.entered) == 0 && len(x.left) == 0 {
		return
	}
	x.nEnter += uint64(len(x.entered))
	x.nLeave += uint64(len(x.left))
	x.epoch.Add(1)
	for _, s := range x.subs {
		s.fn(x.entered, x.left)
	}
}

// OnDelta registers fn to receive every skyline (or k-skyband)
// membership change from now on: the points that entered and the points
// that left, after each mutating operation that changed the band (for
// InsertBatch, after each individual insert). fn runs on the mutating
// goroutine with the index lock held, must not call back into the
// index, and the slices (and their Values) are reused — copy what must
// outlive the call. The registration is cancelable: calling the
// returned function removes it, after which fn is never called again.
// cancel is idempotent and safe to call concurrently with mutations (it
// takes the index lock, so it never races a delivery in flight) — the
// lifecycle a network delta subscriber needs so a disconnected client
// does not leak its callback. Any number of registrations may coexist;
// they fire in registration order.
func (x *SkylineIndex) OnDelta(fn func(entered, left []Point)) (cancel func()) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.subSeq++
	id := x.subSeq
	x.subs = append(x.subs, deltaSub{id: id, fn: fn})
	return func() {
		x.mu.Lock()
		defer x.mu.Unlock()
		for i, s := range x.subs {
			if s.id == id {
				x.subs = append(x.subs[:i], x.subs[i+1:]...)
				return
			}
		}
	}
}

// validatePoint checks dimensionality and finiteness. It reads only
// immutable fields, so Window can call it before taking the lock.
func (x *SkylineIndex) validatePoint(p []float64) error {
	if len(p) != x.d {
		return fmt.Errorf("%w: %d dimensions, want %d", skybench.ErrBadPoint, len(p), x.d)
	}
	for i, v := range p {
		if !point.Finite(v) {
			return fmt.Errorf("%w: non-finite value %v on dimension %d", skybench.ErrBadPoint, v, i)
		}
	}
	return nil
}

// Len returns the number of live points.
func (x *SkylineIndex) Len() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.core.Len()
}

// Contains reports whether the ID is live in the index.
func (x *SkylineIndex) Contains(id ID) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	_, ok := x.loc[id]
	return ok
}

// Stats reports the index's lifetime counters.
type Stats struct {
	// Entered and Left count the membership changes mutations caused.
	// After Recover they count only the replayed WAL tail and later
	// mutations: a checkpoint is loaded in one pass that emits no
	// membership changes.
	Entered, Left uint64
	// Resurrections counts points re-admitted to the skyline by the
	// deletion of their bucket owner; Rebuilds counts full-recompute
	// escalations (a checkpoint load counts as neither); DominanceTests
	// is the machine-independent work metric, as in skybench.Stats.
	Resurrections, Rebuilds, DominanceTests uint64
}

// Stats returns the current counters.
func (x *SkylineIndex) Stats() Stats {
	x.mu.Lock()
	defer x.mu.Unlock()
	cs := x.core.Stats()
	return Stats{
		Entered:        x.nEnter,
		Left:           x.nLeave,
		Resurrections:  cs.Resurrections,
		Rebuilds:       cs.Rebuilds,
		DominanceTests: cs.DominanceTests,
	}
}

// Close releases the index's private Engine (when it created one). A
// durable index writes a final checkpoint (best-effort — a failure is
// recorded, and recovery replays the WAL tail instead) and closes its
// WAL, so a clean restart recovers without replay. The index must not
// be mutated afterwards; existing Snapshots, and Snapshot itself,
// remain usable.
func (x *SkylineIndex) Close() {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return
	}
	x.closed = true
	if x.dur != nil {
		if x.dur.log.Err() == nil {
			if err := x.checkpointLocked(); err != nil {
				x.dur.lastErr = fmt.Errorf("stream: final checkpoint failed: %w", err)
			}
		}
		x.dur.log.Close()
	}
	if x.ownEng && x.eng != nil {
		x.eng.Close()
	}
	x.eng = nil
}

// LiveEpoch returns the membership epoch of the live point set: it
// advances on every successful Insert and Delete (whether or not band
// membership changed), unlike the Snapshot epoch, which tracks only
// band membership. It is the invalidation key a skybench.Store uses
// for cached whole-set query results, and is safe to call concurrently
// with mutations.
func (x *SkylineIndex) LiveEpoch() uint64 { return x.version.Load() }

// LiveSnapshot materializes the full live point set — every point, band
// member or not — as caller-owned row-major original coordinates with
// per-row IDs, plus the LiveEpoch the materialization corresponds to.
// Rows come back in ascending slot order, deterministic for an
// unchanged epoch. Together with D and LiveEpoch this implements
// skybench.StreamSource, so an index can back a Store collection.
func (x *SkylineIndex) LiveSnapshot() (vals []float64, ids []uint64, epoch uint64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	slots := x.core.AppendLiveSlots(make([]int32, 0, x.core.Len()))
	vals = make([]float64, len(slots)*x.d)
	ids = make([]uint64, len(slots))
	for i, slot := range slots {
		copy(vals[i*x.d:(i+1)*x.d], x.origRow(slot))
		ids[i] = uint64(x.ids[slot])
	}
	return vals, ids, x.version.Load()
}

// LiveBand reads the maintained band out with the live-set facts a
// Store collection needs to serve it as a query answer: per band row its
// position in LiveSnapshot's row order, ID, original coordinates and
// (k-skyband indexes) exact dominator count, rows in ascending position,
// plus the live count and the LiveEpoch they are all exact for — under
// one acquisition of the index lock, so none of them can disagree. It
// costs one pass over the slot statuses and a copy of the band; the
// live set itself is not copied. This implements skybench.BandSource.
func (x *SkylineIndex) LiveBand() skybench.LiveBand {
	x.mu.Lock()
	defer x.mu.Unlock()
	slots, pos := x.core.BandRanks()
	ids, vals, counts := copyBand[uint64](x, slots)
	return skybench.LiveBand{
		Prefs:  slices.Clone(x.prefs),
		K:      x.k,
		Live:   x.core.Len(),
		Epoch:  x.version.Load(),
		Pos:    pos,
		IDs:    ids,
		Vals:   vals,
		Counts: counts,
	}
}

// copyBand is the one walk over band rows, shared by Snapshot and
// LiveBand: the ID, original coordinates and (k-skyband indexes only)
// exact dominator count of each slot, in the order given; nil slots
// means the band in the core's mirror order, Skyline(). Without
// preferences the original coordinates are the staged ones, so they are
// read from the core's dense band mirror rather than gathered from the
// slot arena, and in mirror order they are the mirror, copied whole.
// The index lock must be held.
func copyBand[T ~uint64](x *SkylineIndex, slots []int32) (ids []T, vals []float64, counts []int32) {
	whole := slots == nil && x.identity
	if slots == nil {
		slots = x.core.Skyline()
	}
	ids = make([]T, len(slots))
	if x.k > 1 {
		counts = make([]int32, len(slots))
	}
	for i, slot := range slots {
		ids[i] = T(x.ids[slot])
		if counts != nil {
			counts[i] = x.core.DominatorCount(slot)
		}
	}
	if whole {
		return ids, slices.Clone(x.core.SkylineRows()), counts
	}
	vals = make([]float64, len(slots)*x.d)
	for i, slot := range slots {
		if x.identity {
			copy(vals[i*x.d:(i+1)*x.d], x.core.BandRow(slot))
		} else {
			copy(vals[i*x.d:(i+1)*x.d], x.origRow(slot))
		}
	}
	return ids, vals, counts
}

// SkylineIndex satisfies skybench.StreamSource, the live-backing
// contract of Store collections, and skybench.BandSource, through which
// a collection answers the queries the index already holds the answer
// to without materializing the live set.
var _ skybench.BandSource = (*SkylineIndex)(nil)

// Snapshot is an immutable copy of the skyline (or k-skyband) at one
// epoch. It is safe to read from any goroutine, forever; it just stops
// being current once the index mutates past it.
type Snapshot struct {
	epoch  uint64
	d      int
	ids    []ID
	vals   []float64
	counts []int32 // per-point dominator counts (k-skyband indexes only)
}

// Snapshot returns the current skyline. Consecutive calls with no
// intervening membership change return the same *Snapshot without
// copying anything, so polling readers are cheap; after a change the
// next call rebuilds the snapshot once (taking the index lock briefly).
// The order of points within a snapshot is unspecified.
func (x *SkylineIndex) Snapshot() *Snapshot {
	if s := x.snap.Load(); s != nil && s.epoch == x.epoch.Load() {
		return s
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	ep := x.epoch.Load()
	if s := x.snap.Load(); s != nil && s.epoch == ep {
		return s
	}
	s := &Snapshot{epoch: ep, d: x.d}
	s.ids, s.vals, s.counts = copyBand[ID](x, nil)
	x.snap.Store(s)
	return s
}

// Len returns the number of skyline points in the snapshot.
func (s *Snapshot) Len() int { return len(s.ids) }

// ID returns the i-th skyline point's ID.
func (s *Snapshot) ID(i int) ID { return s.ids[i] }

// Row returns the i-th skyline point's original coordinates. The slice
// aliases the snapshot's storage: treat it as read-only.
func (s *Snapshot) Row(i int) []float64 {
	return s.vals[i*s.d : (i+1)*s.d : (i+1)*s.d]
}

// Count returns the i-th point's exact dominator count for a k-skyband
// index (always < SkybandK); for a skyline index it is always 0, every
// skyline point being undominated.
func (s *Snapshot) Count(i int) int {
	if s.counts == nil {
		return 0
	}
	return int(s.counts[i])
}

// IDs returns all skyline IDs in snapshot order (aliasing the
// snapshot's storage: treat it as read-only).
func (s *Snapshot) IDs() []ID { return s.ids }

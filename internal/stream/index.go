// Package stream implements the incremental skyline and k-skyband
// maintenance core behind the public skybench/stream package: a mutable
// index over staged (all-minimized) points that keeps the exact band
// current under inserts and deletes without recomputing it from scratch.
//
// The design generalizes one invariant of the dominance relation. For
// the skyline (k = 1), every non-skyline point is filed in the
// exclusive-dominance "bucket" of one skyline point that dominates it.
// For the k-skyband — the points dominated by fewer than k others —
// every out-of-band point has at least k dominators inside the band
// (every dominator of a band point is itself a band point, by
// transitivity), so it is registered in the buckets of exactly k
// distinct band dominators, and the band members carry their exact
// dominator counts. The registration invariant is what makes deletion
// local: a point needs re-examination only when one of its k registered
// owners disappears — losing an unregistered dominator still leaves k
// registered ones, so membership cannot have changed.
//
// An insert probes the dense band matrix with the flat kernels of
// internal/point — a probe with k dominators is registered under the
// first k the scan finds; otherwise it enters the band with its exact
// count and increments the count of every band member it dominates,
// demoting those that reach k (their buckets transfer to the new point,
// which transitively dominates everything they did). Deleting a
// registered point is O(k); deleting a band member decrements the count
// of every band member it dominated, then re-resolves only its own
// bucket: each orphan either finds a replacement dominator not already
// registered, or — having exactly k−1 band dominators left — is
// promoted into the band with that exact count.
//
// Re-resolution work is accrued in a dirty counter; when it exceeds a
// configurable fraction of the live set, the index escalates to a full
// recompute (through a pluggable hook — the public package supplies an
// Engine-backed k-skyband query) that also rebalances every bucket and
// re-sorts the band by L1 norm, restoring short scan prefixes.
package stream

import (
	"slices"

	"skybench/internal/point"
)

// ownerSkyline, ownerBucketed and ownerFree are the slot status values:
// in the band, registered under band dominators, or not allocated.
const (
	ownerSkyline  int32 = -1
	ownerFree     int32 = -2
	ownerBucketed int32 = -3
)

// rebuildMinEngine is the live size below which escalation uses the
// built-in L1 re-insertion instead of the external hook: firing up a
// full parallel engine for a few hundred points costs more than the
// sequential scan it replaces.
const rebuildMinEngine = 256

// Options configures an Index.
type Options struct {
	// K is the band parameter: the index maintains the set of points
	// dominated by fewer than K others. 0 and 1 both select the plain
	// skyline. Fixed for the life of the index.
	K int
	// RebuildFraction triggers a full rebuild when the dirty counter
	// (accumulated re-resolution and demotion work) would exceed this
	// fraction of the live point count. Zero selects the default (0.5);
	// math.Inf(1) disables escalation entirely.
	RebuildFraction float64
	// Rebuild, when non-nil, computes the K-skyband of the n staged
	// d-dimensional row-major points in vals, returning row indices into
	// vals plus each member's exact dominator count (counts may be nil
	// when K = 1, where every skyline point has zero dominators). It is
	// invoked on escalation for live sets of at least rebuildMinEngine
	// points; the results may alias storage the hook reuses, as the
	// Index consumes them before returning. A nil index slice falls back
	// to the built-in sequential rebuild.
	Rebuild func(vals []float64, n int) ([]int, []int32)
	// OnEnter and OnLeave, when non-nil, observe band membership
	// changes: OnEnter(slot) fires when a live slot enters the band,
	// OnLeave(slot) when it leaves (by demotion or deletion; for a
	// deletion the slot's values remain readable for the duration of the
	// callback). A rebuild emits the net membership change it caused —
	// none for an explicit Rebuild (recomputing an exact band finds the
	// same set), the resurrected orphans for a delete that escalated
	// past per-point re-resolution.
	OnEnter func(slot int32)
	// OnLeave is OnEnter's counterpart; see OnEnter.
	OnLeave func(slot int32)
}

// Stats are the Index's lifetime counters.
type Stats struct {
	// DominanceTests counts full point-vs-point dominance tests — the
	// same machine-independent metric the one-shot algorithms report.
	DominanceTests uint64
	// Resurrections counts points that re-entered the band when one of
	// their registered owners was deleted.
	Resurrections uint64
	// Rebuilds counts full-recompute escalations.
	Rebuilds uint64
}

// Index is the mutable band maintenance structure. It is not
// goroutine-safe; the public wrapper serializes access.
type Index struct {
	d   int
	k   int
	opt Options

	// Slot-indexed state. A slot is the point's permanent home in the
	// arena until it is deleted and the slot recycled. vals holds the
	// staged coordinates (d per slot), l1 their L1 norms; owner is the
	// slot's status, cnt its exact dominator count while it is a band
	// member, pos its position in the dense band mirror. A bucketed
	// slot's k registrations live in regO/regP (owner slot and position
	// within that owner's bucket, k entries per slot); buckets[s] lists
	// the points registered under band point s.
	vals    []float64
	l1      []float64
	owner   []int32
	pos     []int32
	cnt     []int32
	regO    []int32
	regP    []int32
	buckets [][]int32
	free    []int32
	live    int

	// Dense band mirror: row p of skyVals is the staged point of slot
	// skySlots[p], with skyL1 its norm. Keeping the band contiguous is
	// what lets the probe scans run the flat kernels at full speed.
	skySlots []int32
	skyVals  []float64
	skyL1    []float64

	dirty     int
	rebuildMu bool // guards against emitting events inside a rebuild

	stats Stats

	// Reusable scratch: demoted band positions and slots during an
	// insert, detached bucket members during a delete, collected
	// dominator positions during classification, and the dense gather
	// and pre-rebuild membership used by rebuilds.
	demoted   []int
	demotedS  []int32
	detached  []int32
	doms      []int32
	gatherIdx []int32
	gatherVal []float64
	wasSky    []bool
}

// New creates an empty index over staged d-dimensional points.
func New(d int, opt Options) *Index {
	if d < 1 {
		panic("stream: dimensionality must be at least 1")
	}
	if opt.RebuildFraction == 0 {
		opt.RebuildFraction = 0.5
	}
	k := opt.K
	if k < 1 {
		k = 1
	}
	return &Index{d: d, k: k, opt: opt}
}

// D returns the staged dimensionality.
func (ix *Index) D() int { return ix.d }

// K returns the band parameter (1 = skyline).
func (ix *Index) K() int { return ix.k }

// Len returns the number of live points.
func (ix *Index) Len() int { return ix.live }

// SkylineSize returns the current band cardinality.
func (ix *Index) SkylineSize() int { return len(ix.skySlots) }

// Stats returns the lifetime counters.
func (ix *Index) Stats() Stats { return ix.stats }

// Skyline returns the slots currently in the band. The slice aliases
// internal storage and is valid only until the next mutation; its order
// is unspecified.
func (ix *Index) Skyline() []int32 { return ix.skySlots }

// AppendLiveSlots appends every live slot (band member or bucketed) to
// dst in ascending slot order — the deterministic enumeration behind
// live-set materialization — and returns the extended slice.
func (ix *Index) AppendLiveSlots(dst []int32) []int32 {
	for slot, owner := range ix.owner {
		if owner != ownerFree {
			dst = append(dst, int32(slot))
		}
	}
	return dst
}

// AppendBandRanks appends every band slot, in ascending slot order, to
// slots and — parallel to it — the slot's rank among the live slots to
// ranks: the row position AppendLiveSlots' enumeration gives it. One
// pass over the slot statuses; no values are read.
func (ix *Index) AppendBandRanks(slots []int32, ranks []int) ([]int32, []int) {
	rank := 0
	for slot, owner := range ix.owner {
		if owner == ownerFree {
			continue
		}
		if owner == ownerSkyline {
			slots = append(slots, int32(slot))
			ranks = append(ranks, rank)
		}
		rank++
	}
	return slots, ranks
}

// Row returns the staged values of a live slot (aliasing the arena).
func (ix *Index) Row(slot int32) []float64 {
	return ix.vals[int(slot)*ix.d : (int(slot)+1)*ix.d : (int(slot)+1)*ix.d]
}

// InSkyline reports whether a live slot is currently a band member.
func (ix *Index) InSkyline(slot int32) bool { return ix.owner[slot] == ownerSkyline }

// DominatorCount returns the exact dominator count of a band member
// (always < K). For non-members the count is not maintained and the
// return value is unspecified.
func (ix *Index) DominatorCount(slot int32) int32 { return ix.cnt[slot] }

// Alloc copies the staged point p into a fresh slot and returns it. The
// point is live but not yet placed: callers must follow with Place
// (split so the public wrapper can record per-slot metadata before
// membership callbacks fire).
func (ix *Index) Alloc(p []float64) int32 {
	if len(p) != ix.d {
		panic("stream: point dimensionality mismatch")
	}
	var slot int32
	if n := len(ix.free); n > 0 {
		slot = ix.free[n-1]
		ix.free = ix.free[:n-1]
		copy(ix.vals[int(slot)*ix.d:], p)
	} else {
		slot = int32(len(ix.owner))
		ix.vals = append(ix.vals, p...)
		ix.l1 = append(ix.l1, 0)
		ix.owner = append(ix.owner, ownerFree)
		ix.pos = append(ix.pos, 0)
		ix.cnt = append(ix.cnt, 0)
		for j := 0; j < ix.k; j++ {
			ix.regO = append(ix.regO, ownerFree)
			ix.regP = append(ix.regP, 0)
		}
		ix.buckets = append(ix.buckets, nil)
	}
	ix.l1[slot] = point.L1(p)
	ix.live++
	return slot
}

// Place classifies an allocated slot against the current band and
// reports whether it entered it.
func (ix *Index) Place(slot int32) bool {
	return ix.classify(slot)
}

// Insert is Alloc followed by Place.
func (ix *Index) Insert(p []float64) (slot int32, entered bool) {
	slot = ix.Alloc(p)
	return slot, ix.Place(slot)
}

// classify files slot into the structure: registered under the first k
// band dominators the scan finds, or entered into the band with its
// exact dominator count, demoting any band members whose count its
// arrival pushes to k. Fires membership events outside rebuilds.
func (ix *Index) classify(slot int32) bool {
	d := ix.d
	k := ix.k
	q := ix.Row(slot)
	qL1 := ix.l1[slot]
	ns := len(ix.skySlots)

	if k == 1 {
		// Skyline fast path: the unrolled first-dominator kernel.
		if j := point.FirstDominatorInFlatRun(ix.skyVals, d, 0, ns, q, qL1, ix.skyL1, &ix.stats.DominanceTests); j >= 0 {
			ix.registerOne(slot, ix.skySlots[j])
			return false
		}
		ix.cnt[slot] = 0
	} else {
		ix.doms = point.AppendDominatorsInFlatRun(ix.doms[:0], ix.skyVals, d, 0, ns, q, qL1, ix.skyL1, k, &ix.stats.DominanceTests)
		if len(ix.doms) >= k {
			ix.registerAll(slot, ix.doms)
			return false
		}
		ix.cnt[slot] = int32(len(ix.doms))
	}

	// Fewer than k band dominators: q enters the band. Its arrival adds
	// one dominator to every band member it dominates (a dominated row
	// needs a strictly larger L1 norm, so most rows are pruned by one
	// comparison); members reaching k dominators are demoted.
	ix.demoted = ix.demoted[:0]
	for p := 0; p < ns; p++ {
		if ix.skyL1[p] <= qL1 {
			continue
		}
		ix.stats.DominanceTests++
		if point.DominatesFlat2(ix.vals, int(slot)*d, ix.skyVals, p*d, d) {
			s := ix.skySlots[p]
			ix.cnt[s]++
			if int(ix.cnt[s]) >= k {
				ix.demoted = append(ix.demoted, p)
			}
		}
	}
	// Demotion phase 1, in descending band position so the swap-removes
	// never disturb a position still waiting to be processed: take every
	// demotee out of the band, then make q scannable.
	ix.demotedS = ix.demotedS[:0]
	for i := len(ix.demoted) - 1; i >= 0; i-- {
		p := ix.demoted[i]
		s := ix.skySlots[p]
		ix.emitLeave(s)
		ix.removeSkyline(p)
		ix.demotedS = append(ix.demotedS, s)
	}
	ix.appendSkyline(slot)
	ix.emitEnter(slot)
	// Demotion phase 2: every registration entry pointing at a demotee
	// is repointed — to q when q is not already registered on that
	// member (q dominates the demotee, hence transitively the member),
	// otherwise to a fresh band dominator found by scan; one always
	// exists, because an out-of-band point has ≥ k band dominators and
	// demotees never match band entries. Buckets hand over wholesale.
	for _, s := range ix.demotedS {
		members := ix.buckets[s]
		for _, m := range members {
			ix.repointReg(m, s, slot)
		}
		ix.buckets[s] = members[:0]
		ix.dirty += len(members)
	}
	// Demotion phase 3: register the demotees themselves. Demotees form
	// an antichain (if one dominated another the second would have
	// reached k+1 dominators while still a band member, impossible), so
	// their pre-demotion dominators all remain in the band and each
	// registration scan finds exactly k.
	for _, s := range ix.demotedS {
		ix.registerDemoted(s, slot)
	}
	return true
}

// registerDemoted registers a just-demoted slot, whose dominator count
// reached exactly k: under newOwner alone when k = 1, else under the k
// band dominators a fresh scan collects (newOwner among them).
func (ix *Index) registerDemoted(s, newOwner int32) {
	if ix.k == 1 {
		ix.registerOne(s, newOwner)
		return
	}
	q := ix.Row(s)
	qL1 := ix.l1[s]
	ix.doms = point.AppendDominatorsInFlatRun(ix.doms[:0], ix.skyVals, ix.d, 0, len(ix.skySlots), q, qL1, ix.skyL1, ix.k, &ix.stats.DominanceTests)
	if len(ix.doms) < ix.k {
		// The L1 prefilter can hide a dominator whose computed norm tied
		// the probe's by float absorption; rescan without it. The counts
		// themselves are maintained by exact dominance tests, so the
		// unfiltered scan always finds the k dominators the count names.
		ix.doms = point.AppendDominatorsInFlatRun(ix.doms[:0], ix.skyVals, ix.d, 0, len(ix.skySlots), q, qL1, nil, ix.k, &ix.stats.DominanceTests)
		if len(ix.doms) < ix.k {
			panic("stream: demoted point has fewer dominators than its maintained count")
		}
	}
	ix.registerAll(s, ix.doms)
}

// Delete removes a live slot from the index, re-resolving (or escalating
// past) its bucket when the slot was a band member. It reports whether
// the slot was live.
func (ix *Index) Delete(slot int32) bool {
	if int(slot) >= len(ix.owner) || ix.owner[slot] == ownerFree {
		return false
	}
	k := ix.k
	if ix.owner[slot] != ownerSkyline {
		// Registered point: unlink from its k owners and free — no band
		// impact, because losing a non-band point can only lower the
		// counts of other non-band points.
		ix.unregisterAll(slot)
		ix.freeSlot(slot)
		ix.dirty++
		ix.maybeRebuild(0)
		return true
	}

	members := ix.buckets[slot]
	if ix.shouldRebuild(len(members) + 1) {
		// The bucket is too large to re-resolve point-by-point (or dirt
		// has accrued): drop the point and recompute wholesale. The
		// orphaned members are still live; the rebuild re-places every
		// live point, overwriting stale registrations.
		ix.emitLeave(slot)
		ix.removeSkyline(int(ix.pos[slot]))
		ix.buckets[slot] = members[:0]
		ix.freeSlot(slot)
		ix.rebuild()
		return true
	}

	ix.emitLeave(slot)
	ix.removeSkyline(int(ix.pos[slot]))

	// Every band member the deleted point dominated loses one dominator.
	// They all stay in the band (counts only drop), and no point outside
	// the deleted point's bucket can be promoted by this delete: its k
	// registered owners are all still band members, so its band
	// dominator count is still ≥ k.
	if k > 1 {
		d := ix.d
		sL1 := ix.l1[slot]
		for p := 0; p < len(ix.skySlots); p++ {
			if ix.skyL1[p] <= sL1 {
				continue
			}
			ix.stats.DominanceTests++
			if point.DominatesFlat2(ix.vals, int(slot)*d, ix.skyVals, p*d, d) {
				ix.cnt[ix.skySlots[p]]--
			}
		}
	}

	// Detach the bucket before re-resolving: resolution appends to other
	// buckets, never to a freed slot's.
	ix.detached = append(ix.detached[:0], members...)
	ix.buckets[slot] = members[:0]
	ix.freeSlot(slot)

	// Re-resolve orphans in ascending L1 order: an orphan promoted into
	// the band is then visible to the scans of later orphans (which have
	// the larger norms and may be dominated by it), keeping every
	// count and registration exact.
	slices.SortFunc(ix.detached, func(a, b int32) int {
		switch la, lb := ix.l1[a], ix.l1[b]; {
		case la < lb:
			return -1
		case la > lb:
			return 1
		}
		return 0
	})
	for _, m := range ix.detached {
		ix.resolveOrphan(m, slot)
	}
	ix.dirty += len(ix.detached) + 1
	ix.maybeRebuild(0)
	return true
}

// resolveOrphan re-places bucket member m after its registered owner
// gone was deleted. For k = 1 this is a full reclassification (the old
// exclusive-bucket rule). For k > 1 the registration invariant makes it
// local: m lost one of its k registered band dominators, so it stays
// out of band iff some unregistered band dominator can take the slot;
// if none exists, m has exactly k−1 band dominators and is promoted
// with that exact count.
func (ix *Index) resolveOrphan(m, gone int32) {
	k := ix.k
	if k == 1 {
		if ix.classify(m) {
			ix.stats.Resurrections++
		}
		return
	}
	base := int(m) * k
	j := -1
	for i := 0; i < k; i++ {
		if ix.regO[base+i] == gone {
			j = i
			break
		}
	}
	if j < 0 {
		// Membership in gone's bucket implies a registration entry; reach
		// here only if the structure is corrupt.
		panic("stream: orphan not registered under deleted owner")
	}
	// Scan the band for a dominator of m not already registered (entry j
	// still holds the freed gone slot, which can never match a band
	// member, so the helper's full-list duplicate check is exact here —
	// and it retries unfiltered when float absorption hides a dominator
	// behind a tied L1 norm, so a point with a k-th band dominator is
	// never promoted by mistake).
	if s := ix.findUnregisteredDominator(m); s >= 0 {
		// Replacement found: m keeps k registered dominators and stays
		// out of band.
		ix.regO[base+j] = s
		ix.regP[base+j] = int32(len(ix.buckets[s]))
		ix.buckets[s] = append(ix.buckets[s], m)
		return
	}
	// No unregistered dominator exists: m's band dominators are exactly
	// its k−1 surviving registrations — promote with that exact count.
	for i := 0; i < k; i++ {
		if i != j {
			ix.removeRegEntry(m, i)
		}
	}
	ix.cnt[m] = int32(k - 1)
	ix.appendSkyline(m)
	ix.emitEnter(m)
	ix.stats.Resurrections++
}

// shouldRebuild reports whether pending units of re-resolution work, on
// top of the accrued dirt, cross the escalation threshold.
func (ix *Index) shouldRebuild(pending int) bool {
	return float64(ix.dirty+pending) > ix.opt.RebuildFraction*float64(ix.live)
}

// maybeRebuild escalates when the accrued dirt alone crosses the
// threshold (checked after cheap deletes so pure-delete workloads also
// converge back to a balanced structure).
func (ix *Index) maybeRebuild(pending int) {
	if ix.live > 0 && ix.shouldRebuild(pending) {
		ix.rebuild()
	}
}

// Rebuild forces a full recompute and rebucketing, as escalation does.
func (ix *Index) Rebuild() { ix.rebuild() }

// rebuild recomputes the band of the live set from scratch — through
// the external hook when one is configured and the set is large enough,
// otherwise by re-inserting every live point in ascending L1 order — and
// rebuilds every bucket and registration. Events fire only for the net
// membership change, computed by diffing against the pre-rebuild state
// (empty for a clean rebuild; the resurrected orphans for an escalated
// delete).
func (ix *Index) rebuild() {
	ix.stats.Rebuilds++
	ix.dirty = 0
	d := ix.d
	k := ix.k

	// Record the pre-rebuild membership so the net change can be
	// emitted, and gather the live set densely, sorted by L1 ascending:
	// the in-order classification below depends on the order (nothing
	// is ever demoted when dominators are always inserted first), and
	// it leaves the rebuilt band matrix sorted so future insert scans
	// meet likely dominators first.
	if cap(ix.wasSky) < len(ix.owner) {
		ix.wasSky = make([]bool, len(ix.owner))
	}
	ix.wasSky = ix.wasSky[:len(ix.owner)]
	ix.gatherIdx = ix.gatherIdx[:0]
	for s := range ix.owner {
		ix.wasSky[s] = ix.owner[s] == ownerSkyline
		if ix.owner[s] != ownerFree {
			ix.gatherIdx = append(ix.gatherIdx, int32(s))
		}
	}
	slices.SortFunc(ix.gatherIdx, func(a, b int32) int {
		switch la, lb := ix.l1[a], ix.l1[b]; {
		case la < lb:
			return -1
		case la > lb:
			return 1
		}
		return 0
	})

	// Reset placement. Buckets are emptied in place so their capacity
	// survives for the refill; registrations are overwritten when each
	// point is re-placed.
	ix.skySlots = ix.skySlots[:0]
	ix.skyVals = ix.skyVals[:0]
	ix.skyL1 = ix.skyL1[:0]
	for _, s := range ix.gatherIdx {
		ix.buckets[s] = ix.buckets[s][:0]
	}

	n := len(ix.gatherIdx)
	var sky []int
	var skyCnt []int32
	if ix.opt.Rebuild != nil && n >= rebuildMinEngine {
		if cap(ix.gatherVal) < n*d {
			ix.gatherVal = make([]float64, n*d)
		}
		ix.gatherVal = ix.gatherVal[:n*d]
		for i, s := range ix.gatherIdx {
			copy(ix.gatherVal[i*d:(i+1)*d], ix.Row(s))
		}
		sky, skyCnt = ix.opt.Rebuild(ix.gatherVal, n)
	}

	ix.rebuildMu = true
	if sky == nil {
		// Built-in sequential path: classify in ascending L1 order. No
		// point can dominate an earlier one, so nothing is ever demoted —
		// each point either joins the band for good, with its exact
		// dominator count, or is registered under its first k dominators.
		for _, s := range ix.gatherIdx {
			ix.classify(s)
		}
	} else {
		// Hook path: mark membership and counts, append the band rows
		// (already in ascending L1 order thanks to the sorted gather),
		// then register every out-of-band point under the first k
		// dominators in the sorted band prefix with strictly smaller
		// norms.
		inSky := make([]bool, n)
		for pos, i := range sky {
			inSky[i] = true
			if skyCnt != nil {
				ix.cnt[ix.gatherIdx[i]] = skyCnt[pos]
			} else {
				ix.cnt[ix.gatherIdx[i]] = 0
			}
		}
		for i, s := range ix.gatherIdx {
			if inSky[i] {
				ix.appendSkyline(s)
			}
		}
		for i, s := range ix.gatherIdx {
			if inSky[i] {
				continue
			}
			qL1 := ix.l1[s]
			hi, _ := slices.BinarySearch(ix.skyL1, qL1)
			if k == 1 {
				j := point.FirstDominatorInFlatRun(ix.skyVals, d, 0, hi, ix.Row(s), qL1, nil, &ix.stats.DominanceTests)
				if j < 0 {
					// The hook disagreed with the maintained band (it
					// should not); fall back to a full classify so the
					// structure stays correct regardless.
					ix.classify(s)
					continue
				}
				ix.registerOne(s, ix.skySlots[j])
				continue
			}
			ix.doms = point.AppendDominatorsInFlatRun(ix.doms[:0], ix.skyVals, d, 0, hi, ix.Row(s), qL1, nil, k, &ix.stats.DominanceTests)
			if len(ix.doms) < k {
				ix.classify(s) // hook disagreement; same fallback as k = 1
				continue
			}
			ix.registerAll(s, ix.doms)
		}
	}
	ix.rebuildMu = false

	// Emit the net membership change. Net entries are resurrections that
	// took the escalated path instead of per-point re-resolution; count
	// them the same so the stat is path-independent.
	for _, s := range ix.gatherIdx {
		now := ix.owner[s] == ownerSkyline
		if now != ix.wasSky[s] {
			if now {
				ix.stats.Resurrections++
				ix.emitEnter(s)
			} else {
				ix.emitLeave(s)
			}
		}
	}
}

// RebuildFraction returns the effective escalation threshold.
func (ix *Index) RebuildFraction() float64 { return ix.opt.RebuildFraction }

// Validate checks the structural invariants — every live point either a
// band member with a dominator count below k, or registered under k
// distinct dominating band members with consistent bucket positions,
// and the dense mirror in sync — and panics on violation. Test support;
// O(n·k·d).
func (ix *Index) Validate() {
	k := ix.k
	live := 0
	for s := range ix.owner {
		slot := int32(s)
		switch o := ix.owner[s]; {
		case o == ownerFree:
			continue
		case o == ownerSkyline:
			live++
			p := int(ix.pos[slot])
			if p >= len(ix.skySlots) || ix.skySlots[p] != slot {
				panic("stream: band position out of sync")
			}
			if !slices.Equal(ix.skyVals[p*ix.d:(p+1)*ix.d], ix.Row(slot)) {
				panic("stream: band mirror out of sync")
			}
			if int(ix.cnt[slot]) >= k {
				panic("stream: band member with count >= k")
			}
		case o == ownerBucketed:
			live++
			base := s * k
			for i := 0; i < k; i++ {
				ob := ix.regO[base+i]
				if ob < 0 || ix.owner[ob] != ownerSkyline {
					panic("stream: registered owner not in band")
				}
				for x := 0; x < i; x++ {
					if ix.regO[base+x] == ob {
						panic("stream: duplicate registered owner")
					}
				}
				b := ix.buckets[ob]
				p := int(ix.regP[base+i])
				if p >= len(b) || b[p] != slot {
					panic("stream: bucket position out of sync")
				}
				if !point.DominatesFlat(ix.vals, int(ob)*ix.d, s*ix.d, ix.d) {
					panic("stream: registered owner does not dominate member")
				}
			}
		default:
			panic("stream: invalid slot status")
		}
	}
	if live != ix.live {
		panic("stream: live count out of sync")
	}
}

func (ix *Index) emitEnter(slot int32) {
	if ix.opt.OnEnter != nil && !ix.rebuildMu {
		ix.opt.OnEnter(slot)
	}
}

func (ix *Index) emitLeave(slot int32) {
	if ix.opt.OnLeave != nil && !ix.rebuildMu {
		ix.opt.OnLeave(slot)
	}
}

// registerOne files slot under a single owner (the k = 1 bucket rule).
func (ix *Index) registerOne(slot, owner int32) {
	base := int(slot) * ix.k
	ix.regO[base] = owner
	ix.regP[base] = int32(len(ix.buckets[owner]))
	ix.buckets[owner] = append(ix.buckets[owner], slot)
	ix.owner[slot] = ownerBucketed
}

// registerAll files slot under the band members at the given dense band
// positions (distinct by construction: they come from one scan).
func (ix *Index) registerAll(slot int32, positions []int32) {
	k := ix.k
	base := int(slot) * k
	for i, p := range positions {
		o := ix.skySlots[p]
		ix.regO[base+i] = o
		ix.regP[base+i] = int32(len(ix.buckets[o]))
		ix.buckets[o] = append(ix.buckets[o], slot)
	}
	ix.owner[slot] = ownerBucketed
}

// repointReg repoints slot's registration entry for the demoted
// oldOwner: at newOwner when it is not yet registered on slot, else at
// a band dominator of slot found by scan. The caller discards
// oldOwner's bucket wholesale, so no removal happens here. Entries for
// other still-pending demotees may be stale during the scan; they never
// collide with it, because a scan result is a band member and a pending
// demotee is not.
func (ix *Index) repointReg(slot, oldOwner, newOwner int32) {
	k := ix.k
	base := int(slot) * k
	j := -1
	dup := false
	for i := 0; i < k; i++ {
		switch ix.regO[base+i] {
		case oldOwner:
			j = i
		case newOwner:
			dup = true
		}
	}
	if j < 0 {
		panic("stream: registration entry for demoted owner not found")
	}
	target := newOwner
	if dup {
		// An earlier demotee of this insert already repointed one of
		// slot's entries at newOwner; this entry needs a different
		// dominator.
		target = ix.findUnregisteredDominator(slot)
		if target < 0 {
			panic("stream: no replacement dominator for demoted registration")
		}
	}
	ix.regO[base+j] = target
	ix.regP[base+j] = int32(len(ix.buckets[target]))
	ix.buckets[target] = append(ix.buckets[target], slot)
}

// findUnregisteredDominator scans the band for a dominator of slot that
// is not currently among slot's registration entries, returning its
// slot or -1. The L1-prefiltered scan is retried unfiltered before
// giving up, for the same float-absorption reason as registerDemoted.
func (ix *Index) findUnregisteredDominator(slot int32) int32 {
	for _, filtered := range []bool{true, false} {
		d := ix.d
		k := ix.k
		base := int(slot) * k
		qOff := int(slot) * d
		qL1 := ix.l1[slot]
		for p := 0; p < len(ix.skySlots); p++ {
			if filtered && ix.skyL1[p] >= qL1 {
				continue
			}
			if !filtered && ix.skyL1[p] < qL1 {
				continue // pass 1 already tested this row
			}
			ix.stats.DominanceTests++
			if !point.DominatesFlat2(ix.skyVals, p*d, ix.vals, qOff, d) {
				continue
			}
			s := ix.skySlots[p]
			already := false
			for i := 0; i < k; i++ {
				if ix.regO[base+i] == s {
					already = true
					break
				}
			}
			if !already {
				return s
			}
		}
	}
	return -1
}

// removeRegEntry unlinks slot's i-th registration from its owner's
// bucket, fixing the swapped member's back-reference.
func (ix *Index) removeRegEntry(slot int32, i int) {
	k := ix.k
	base := int(slot)*k + i
	o := ix.regO[base]
	p := ix.regP[base]
	b := ix.buckets[o]
	last := len(b) - 1
	moved := b[last]
	b[p] = moved
	ix.buckets[o] = b[:last]
	if moved != slot {
		mb := int(moved) * k
		for x := 0; x < k; x++ {
			if ix.regO[mb+x] == o {
				ix.regP[mb+x] = p
				break
			}
		}
	}
}

// unregisterAll unlinks slot from every registered owner (owners are
// distinct, so the removals are independent).
func (ix *Index) unregisterAll(slot int32) {
	for i := 0; i < ix.k; i++ {
		ix.removeRegEntry(slot, i)
	}
}

func (ix *Index) appendSkyline(slot int32) {
	ix.owner[slot] = ownerSkyline
	ix.pos[slot] = int32(len(ix.skySlots))
	ix.skySlots = append(ix.skySlots, slot)
	ix.skyVals = append(ix.skyVals, ix.Row(slot)...)
	ix.skyL1 = append(ix.skyL1, ix.l1[slot])
}

// removeSkyline swap-removes dense band position p.
func (ix *Index) removeSkyline(p int) {
	d := ix.d
	last := len(ix.skySlots) - 1
	if p != last {
		moved := ix.skySlots[last]
		ix.skySlots[p] = moved
		copy(ix.skyVals[p*d:(p+1)*d], ix.skyVals[last*d:(last+1)*d])
		ix.skyL1[p] = ix.skyL1[last]
		ix.pos[moved] = int32(p)
	}
	ix.skySlots = ix.skySlots[:last]
	ix.skyVals = ix.skyVals[:last*d]
	ix.skyL1 = ix.skyL1[:last]
}

func (ix *Index) freeSlot(slot int32) {
	ix.owner[slot] = ownerFree
	ix.free = append(ix.free, slot)
	ix.live--
}

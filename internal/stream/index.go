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
// An insert probes the dense band matrix with the masked kernels of
// internal/point, which pass over every row whose partition mask against
// the band's median pivot (Section VI-A2 of the paper) or whose L1 norm
// rules dominance out, and reject most of the rows they test on one code
// word per row (point.Quantizer, refitted to the band whenever the pivot
// is re-chosen) before any float compare. At d ≤ 8, once the band has a
// pivot and so code words, both scans ask all three filters of a word of
// 8 band rows in one vector step where the CPU has one (internal/point
// picks the body), and test rows only in the words where one passes
// them all. A probe with k dominators is registered under the first k
// the scan finds; otherwise it enters the band with its exact count and
// increments the count of every band member it dominates, demoting those
// that reach k (their buckets transfer to the new point, which
// transitively dominates everything they did). Deleting a registered
// point is O(k); deleting a band member decrements the count of every
// band member it dominated, then re-resolves only its own bucket: each
// orphan either finds a replacement dominator not already registered, or
// — having exactly k−1 band dominators left — is promoted into the band
// with that exact count.
//
// Re-resolution work is accrued in a dirty counter; when it exceeds half
// the live set, the index escalates to a rebuild. A rebuild, like a bulk
// Load, is one placement pass over the live set in (L1, coordinates)
// order, a linear extension of dominance: each row is placed with one
// probe of the band built so far and nothing is ever demoted. It
// rebalances every bucket and leaves the band sorted, restoring short
// scan prefixes.
package stream

import (
	"cmp"
	"slices"

	"skybench/internal/pivot"
	"skybench/internal/point"
)

// ownerSkyline, ownerBucketed, ownerFree and ownerUnplaced are the slot
// status values: in the band, registered under band dominators, not
// allocated, or allocated but not yet placed.
const (
	ownerSkyline  int32 = -1
	ownerFree     int32 = -2
	ownerBucketed int32 = -3
	ownerUnplaced int32 = -4
)

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
	// skySlots[p], with skyL1 its norm, skyMask's row p its partition
	// mask against pivot and skyCode[p] its code word under quant.
	// Keeping the band contiguous is what lets the probe scans run the
	// flat kernels at full speed; the masks let them pass over most rows
	// without a dominance test, and the code words decide most of the
	// tests left on one integer word. pivot is re-chosen, quant refitted
	// to the band's column ranges, and every mask and code recomputed,
	// whenever the band has doubled since pivotAt rows. pivot stays nil
	// (every mask and code 0; the filter passes every row and the scans
	// get no codes) while the band is empty and for d > point.MaxDims.
	skySlots []int32
	skyVals  []float64
	skyL1    []float64
	skyMask  point.PackedMasks
	skyCode  []uint64
	pivot    []float64
	quant    point.Quantizer
	pivotAt  int

	dirty int

	stats Stats

	// Reusable scratch: dominated band positions (the demotees, during
	// an insert) and demoted slots, detached bucket members during a
	// delete, collected dominator positions during classification, the
	// sorted slots of the placement pass, and the pre-rebuild membership.
	demoted   []int32
	demotedS  []int32
	detached  []int32
	doms      []int32
	gatherIdx []int32
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
	ix := &Index{d: d, k: k, opt: opt}
	ix.skyMask.Reset(min(d, point.MaxDims))
	return ix
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

// SkylineRows returns the band's staged rows, row p that of slot
// Skyline()[p]: the dense band mirror itself, valid only until the next
// mutation.
func (ix *Index) SkylineRows() []float64 { return ix.skyVals }

// BandRow returns a band member's staged values from the dense band
// mirror (aliasing it): what Row returns, read from the band's
// contiguous rows instead of the slot arena.
func (ix *Index) BandRow(slot int32) []float64 {
	p := int(ix.pos[slot]) * ix.d
	return ix.skyVals[p : p+ix.d : p+ix.d]
}

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

// BandRanks returns every band slot, in ascending slot order, and —
// parallel to it — the slot's rank among the live slots: the row
// position AppendLiveSlots' enumeration gives it. One pass over the
// slot statuses; no values are read. The pass has no branch on a
// slot's status: every slot is written at the next free position,
// which only a band slot advances, and one spare element takes the
// writes after the last member. Band members are a small, scattered
// share of the slots, so a branch would mispredict about once each.
func (ix *Index) BandRanks() ([]int32, []int) {
	n := len(ix.skySlots)
	slots, ranks := make([]int32, n+1), make([]int, n+1)
	j, rank := 0, 0
	for slot, owner := range ix.owner {
		slots[j], ranks[j] = int32(slot), rank
		j += b2i(owner == ownerSkyline)
		rank += b2i(owner != ownerFree)
	}
	return slots[:j], ranks[:j]
}

// b2i is 1 for true and 0 for false, compiled without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
// membership callbacks fire), or allocate more rows and Load them all.
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
	ix.owner[slot] = ownerUnplaced
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
// arrival pushes to k. Fires membership events.
func (ix *Index) classify(slot int32) bool {
	k := ix.k
	doms := ix.dominators(slot)
	if len(doms) == k {
		ix.registerAll(slot, doms)
		return false
	}
	ix.cnt[slot] = int32(len(doms))

	// Fewer than k band dominators: q enters the band. Its arrival adds
	// one dominator to every band member it dominates; members reaching
	// k dominators are demoted.
	dominated := ix.dominated(slot)
	ix.demoted = dominated[:0]
	for _, p := range dominated {
		s := ix.skySlots[p]
		ix.cnt[s]++
		if int(ix.cnt[s]) >= k {
			ix.demoted = append(ix.demoted, p)
		}
	}
	// Demotion phase 1, in descending band position so the swap-removes
	// never disturb a position still waiting to be processed: take every
	// demotee out of the band, then make q scannable.
	ix.demotedS = ix.demotedS[:0]
	for i := len(ix.demoted) - 1; i >= 0; i-- {
		p := int(ix.demoted[i])
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
	ix.registerAll(s, ix.dominators(s))
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
		for _, p := range ix.dominated(slot) {
			ix.cnt[ix.skySlots[p]]--
		}
	}

	// Detach the bucket before re-resolving: resolution appends to other
	// buckets, never to a freed slot's.
	ix.detached = append(ix.detached[:0], members...)
	ix.buckets[slot] = members[:0]
	ix.freeSlot(slot)

	// Re-resolve orphans in ascending key order: an orphan promoted into
	// the band is then visible to the scans of later orphans (which may
	// be dominated by it, never dominate it), keeping every count and
	// registration exact.
	slices.SortFunc(ix.detached, ix.byKey)
	for _, m := range ix.detached {
		ix.resolveOrphan(m, slot)
	}
	ix.dirty += len(ix.detached) + 1
	ix.maybeRebuild(0)
	return true
}

// resolveOrphan re-places bucket member m after its registered owner
// gone was deleted. The registration invariant makes it local: m lost
// one of its k registered band dominators, so it stays out of band iff
// some unregistered band dominator can take the slot; if none exists, m
// has exactly k−1 band dominators and is promoted with that exact count.
// At k = 1 the promotion needs no scan for the band members m dominates
// (classify's): there are none. A member from before the delete shared
// the skyline, an antichain, with gone, which dominates m and so every
// row m dominates; an orphan promoted earlier in the delete precedes m
// in key order, a linear extension of dominance.
func (ix *Index) resolveOrphan(m, gone int32) {
	k := ix.k
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
	// member, so the helper's full-list duplicate check is exact here).
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

// byKey orders slots by computed L1 norm, ties broken by comparing the
// coordinates lexicographically. That is a linear extension of
// dominance: a dominator's computed norm is no larger (rounded addition
// is monotone), and on a tie it is smaller at the first coordinate
// where the two rows differ.
func (ix *Index) byKey(a, b int32) int {
	if c := cmp.Compare(ix.l1[a], ix.l1[b]); c != 0 {
		return c
	}
	return slices.Compare(ix.Row(a), ix.Row(b))
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

// Load places every live slot from scratch in one placement pass,
// firing no membership events and counting no rebuild: the bulk entry
// for rows allocated unplaced into an index that nothing observes yet,
// such as a checkpoint being recovered.
func (ix *Index) Load() { ix.place() }

// rebuild re-places the live set through the placement pass, then emits
// the net membership change against the pre-rebuild state: none for a
// clean rebuild, the resurrected orphans for an escalated delete.
func (ix *Index) rebuild() {
	ix.stats.Rebuilds++
	ix.dirty = 0
	ix.wasSky = ix.wasSky[:0]
	for _, o := range ix.owner {
		ix.wasSky = append(ix.wasSky, o == ownerSkyline)
	}
	ix.place()

	// Net entries are resurrections that took the escalated path instead
	// of per-point re-resolution; count them the same so the stat is
	// path-independent.
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

// place is the one placement pass. It sorts every live slot by byKey, a
// linear extension of dominance, and files each into a band rebuilt
// from empty. Each row probes the band built so far once: it is
// registered under the k dominators found, or appended with the fewer it
// found. Every dominator of a row sorts before it, so each count is
// exact and no placed row is ever revisited. The pass fires no
// membership events; the band ends sorted, so later scans meet likely
// dominators first.
func (ix *Index) place() {
	k := ix.k
	ix.gatherIdx = ix.AppendLiveSlots(ix.gatherIdx[:0])
	slices.SortFunc(ix.gatherIdx, ix.byKey)
	ix.skySlots = ix.skySlots[:0]
	ix.skyVals = ix.skyVals[:0]
	ix.skyL1 = ix.skyL1[:0]
	ix.skyMask.Truncate(0)
	ix.skyCode = ix.skyCode[:0]
	ix.pivotAt = 0
	for _, s := range ix.gatherIdx {
		ix.buckets[s] = ix.buckets[s][:0]
		ix.owner[s] = ownerUnplaced
	}
	for _, s := range ix.gatherIdx {
		doms := ix.dominators(s)
		if len(doms) == k {
			ix.registerAll(s, doms)
			continue
		}
		ix.cnt[s] = int32(len(doms))
		ix.appendSkyline(s)
	}
}

// Validate checks the structural invariants — every live point either a
// band member with a dominator count below k, or registered under k
// distinct dominating band members with consistent bucket positions,
// and the dense mirror, its masks and its code words in sync — and
// panics on violation. Test support; O(n·k·d).
func (ix *Index) Validate() {
	k := ix.k
	live := 0
	if len(ix.skyCode) != len(ix.skySlots) {
		panic("stream: band code column out of sync")
	}
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
			if ix.skyMask.At(p) != ix.maskOf(ix.Row(slot)) {
				panic("stream: band mask out of sync")
			}
			if ix.skyCode[p] != ix.codeOf(ix.Row(slot)) {
				panic("stream: band code out of sync")
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
	if ix.skyMask.Len() != len(ix.skySlots) {
		panic("stream: band mask column out of sync")
	}
}

func (ix *Index) emitEnter(slot int32) {
	if ix.opt.OnEnter != nil {
		ix.opt.OnEnter(slot)
	}
}

func (ix *Index) emitLeave(slot int32) {
	if ix.opt.OnLeave != nil {
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

// findUnregisteredDominator returns the first band dominator of slot,
// in band order, that is not among slot's registration entries, or -1.
// At most k−1 of those entries name band members (every caller holds
// one pointing at a slot that has left the band), so when an
// unregistered dominator exists it is among the first k.
func (ix *Index) findUnregisteredDominator(slot int32) int32 {
	regs := ix.regO[int(slot)*ix.k : (int(slot)+1)*ix.k]
	for _, p := range ix.dominators(slot) {
		if s := ix.skySlots[p]; !slices.Contains(regs, s) {
			return s
		}
	}
	return -1
}

// dominators returns the band positions of the first k rows that
// dominate slot's row, in ascending order, in the reused doms scratch.
func (ix *Index) dominators(slot int32) []int32 {
	q := ix.Row(slot)
	ix.doms = point.AppendDominatorsMasked(ix.doms[:0], ix.skyVals, ix.d, 0, len(ix.skySlots), q, ix.l1[slot], ix.skyL1, &ix.skyMask, ix.maskOf(q), ix.codes(), ix.codeOf(q), ix.k, &ix.stats.DominanceTests)
	return ix.doms
}

// dominated returns the band positions of every row slot's row
// dominates, in ascending order, in the reused demoted scratch.
func (ix *Index) dominated(slot int32) []int32 {
	q := ix.Row(slot)
	ix.demoted = point.AppendDominatedMasked(ix.demoted[:0], ix.skyVals, ix.d, 0, len(ix.skySlots), q, ix.l1[slot], ix.skyL1, &ix.skyMask, ix.maskOf(q), ix.codes(), ix.codeOf(q), &ix.stats.DominanceTests)
	return ix.demoted
}

// maskOf returns q's partition mask against the band's pivot, 0 when
// there is none.
func (ix *Index) maskOf(q []float64) point.Mask {
	if ix.pivot == nil {
		return 0
	}
	return point.ComputeMask(q, ix.pivot)
}

// codes returns the band's code column for the kernels, nil (no
// pre-test) while there is no pivot and so no quantizer.
func (ix *Index) codes() []uint64 {
	if ix.pivot == nil {
		return nil
	}
	return ix.skyCode
}

// codeOf returns q's code word under the band's quantizer, 0 while
// there is no pivot. A row outside the fitted ranges is clamped: the
// map stays monotone, so the pre-test stays exact.
func (ix *Index) codeOf(q []float64) uint64 {
	if ix.pivot == nil {
		return 0
	}
	return ix.quant.Code(q)
}

// repivot makes the per-dimension median of the band the pivot, refits
// the quantizer to the band's column ranges, and recomputes every band
// row's mask and code word. Any constant pivot keeps the mask filter
// exact, and any fixed quantizer the pre-test; the median is the pivot
// that splits the band evenly, and the band's own ranges give the
// codes their full resolution until the next refit.
func (ix *Index) repivot() {
	n, d := len(ix.skySlots), ix.d
	ix.pivotAt = n
	if n == 0 || d > point.MaxDims {
		return
	}
	if ix.pivot == nil {
		ix.pivot = make([]float64, d)
	}
	pivot.MedianColumns(point.FromFlat(ix.skyVals, n, d), ix.pivot, nil, 0, d)
	lo, hi := slices.Clone(ix.skyVals[:d]), slices.Clone(ix.skyVals[:d])
	for off := d; off < n*d; off += d {
		for j, v := range ix.skyVals[off : off+d] {
			lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
		}
	}
	ix.quant.Reset(d, lo, hi)
	ix.skyMask.Reset(d)
	ix.skyCode = ix.skyCode[:0]
	for off := 0; off < n*d; off += d {
		row := ix.skyVals[off : off+d]
		ix.skyMask.Append(point.ComputeMask(row, ix.pivot))
		ix.skyCode = append(ix.skyCode, ix.quant.Code(row))
	}
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
	ix.skyMask.Append(ix.maskOf(ix.Row(slot)))
	ix.skyCode = append(ix.skyCode, ix.codeOf(ix.Row(slot)))
	if len(ix.skySlots) >= 2*ix.pivotAt {
		ix.repivot()
	}
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
		ix.skyMask.Set(p, ix.skyMask.At(last))
		ix.skyCode[p] = ix.skyCode[last]
		ix.pos[moved] = int32(p)
	}
	ix.skySlots = ix.skySlots[:last]
	ix.skyVals = ix.skyVals[:last*d]
	ix.skyL1 = ix.skyL1[:last]
	ix.skyMask.Truncate(last)
	ix.skyCode = ix.skyCode[:last]
}

func (ix *Index) freeSlot(slot int32) {
	ix.owner[slot] = ownerFree
	ix.free = append(ix.free, slot)
	ix.live--
}

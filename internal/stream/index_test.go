package stream

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"skybench/internal/dataset"
	"skybench/internal/point"
)

// bruteBand computes the exact k-skyband slots of the live set by the
// n² definition, with each member's dominator count, as the oracle for
// the maintained structure. k = 1 degenerates to the skyline.
func bruteBand(ix *Index, liveSlots []int32, k int) ([]int32, map[int32]int32) {
	var band []int32
	counts := make(map[int32]int32)
	for _, s := range liveSlots {
		doms := 0
		for _, t := range liveSlots {
			if t != s && point.DominatesFlat(ix.vals, int(t)*ix.d, int(s)*ix.d, ix.d) {
				doms++
			}
		}
		if doms < k {
			band = append(band, s)
			counts[s] = int32(doms)
		}
	}
	slices.Sort(band)
	return band, counts
}

// bruteSkyline is bruteBand at k = 1, without the counts.
func bruteSkyline(ix *Index, liveSlots []int32) []int32 {
	band, _ := bruteBand(ix, liveSlots, 1)
	return band
}

func sortedSkyline(ix *Index) []int32 {
	sky := slices.Clone(ix.Skyline())
	slices.Sort(sky)
	return sky
}

// runRandomOps drives an index through a random insert/delete mix over a
// generated workload, cross-checking membership against the brute-force
// oracle and the structural invariants along the way.
func runRandomOps(t *testing.T, dist dataset.Distribution, d, nOps int, churn float64, quantize int, opt Options, seed int64) {
	t.Helper()
	m := dataset.Generate(dist, nOps, d, seed)
	if quantize > 0 {
		dataset.Quantize(m, quantize)
	}
	rng := rand.New(rand.NewSource(seed + 1))

	// Shadow membership maintained from events, to check the callbacks
	// tell the exact same story as the structure.
	inSky := make(map[int32]bool)
	opt.OnEnter = func(slot int32) {
		if inSky[slot] {
			t.Fatalf("enter event for slot %d already in skyline", slot)
		}
		inSky[slot] = true
	}
	opt.OnLeave = func(slot int32) {
		if !inSky[slot] {
			t.Fatalf("leave event for slot %d not in skyline", slot)
		}
		delete(inSky, slot)
	}

	ix := New(d, opt)
	var live []int32
	next := 0
	for op := 0; op < nOps; op++ {
		if len(live) > 0 && rng.Float64() < churn {
			i := rng.Intn(len(live))
			slot := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if !ix.Delete(slot) {
				t.Fatalf("delete of live slot %d reported dead", slot)
			}
		} else if next < m.N() {
			slot, entered := ix.Insert(m.Row(next))
			next++
			live = append(live, slot)
			if entered != ix.InSkyline(slot) {
				t.Fatalf("Insert entered=%v but InSkyline=%v", entered, ix.InSkyline(slot))
			}
		}
		if op%16 == 15 || op == nOps-1 {
			ix.Validate()
			got := sortedSkyline(ix)
			want, wantCnt := bruteBand(ix, live, ix.K())
			if !slices.Equal(got, want) {
				t.Fatalf("op %d (%s d=%d k=%d): band %v, oracle %v", op, dist, d, ix.K(), got, want)
			}
			for _, s := range got {
				if c := ix.DominatorCount(s); c != wantCnt[s] {
					t.Fatalf("op %d (%s d=%d k=%d): slot %d count %d, oracle %d", op, dist, d, ix.K(), s, c, wantCnt[s])
				}
			}
			// The band in live-row positions: ascending slots, each at its
			// index in the live-slot enumeration.
			slots, ranks := ix.BandRanks()
			liveSlots := ix.AppendLiveSlots(nil)
			if !slices.Equal(slots, want) {
				t.Fatalf("op %d: BandRanks slots %v, oracle %v", op, slots, want)
			}
			for i, s := range slots {
				if liveSlots[ranks[i]] != s {
					t.Fatalf("op %d: band slot %d ranked %d, live slot there is %d", op, s, ranks[i], liveSlots[ranks[i]])
				}
			}
			var fromEvents []int32
			for s := range inSky {
				fromEvents = append(fromEvents, s)
			}
			slices.Sort(fromEvents)
			if !slices.Equal(fromEvents, want) {
				t.Fatalf("op %d: event-tracked band %v, oracle %v", op, fromEvents, want)
			}
		}
	}
	if ix.Len() != len(live) {
		t.Fatalf("live count %d, want %d", ix.Len(), len(live))
	}
}

func TestIndexMatchesBruteForce(t *testing.T) {
	for _, dist := range dataset.AllDistributions {
		for _, d := range []int{1, 2, 4, 7, 8, 16, 31} {
			runRandomOps(t, dist, d, 400, 0.35, 0, Options{}, int64(100*d)+int64(dist))
		}
	}
}

func TestIndexDuplicateHeavy(t *testing.T) {
	// Coarse quantization produces many coincident points; coincident
	// skyline points must all be retained and survive churn.
	runRandomOps(t, dataset.Independent, 3, 500, 0.4, 3, Options{}, 9)
	runRandomOps(t, dataset.Anticorrelated, 5, 400, 0.3, 4, Options{}, 10)
}

func TestIndexFrequentRebuilds(t *testing.T) {
	// A tiny threshold forces the escalation path constantly; results
	// must not change.
	runRandomOps(t, dataset.Independent, 6, 400, 0.45, 0, Options{RebuildFraction: 0.01}, 11)
}

func TestIndexNoRebuilds(t *testing.T) {
	runRandomOps(t, dataset.Anticorrelated, 4, 400, 0.45, 0, Options{RebuildFraction: math.Inf(1)}, 12)
}

// TestIndexRebuildHook drives the escalation path through an external
// hook (a brute-force stand-in for the Engine) and checks both that it
// is consulted and that membership is preserved across rebuilds — also
// when the hook leaves a band row out or fails outright, whose rows the
// placement pass then probes itself.
func TestIndexRebuildHook(t *testing.T) {
	const d = 4
	skyline := func(vals []float64, n int) []int {
		var sky []int
		for i := 0; i < n; i++ {
			dominated := false
			for j := 0; j < n && !dominated; j++ {
				dominated = j != i && point.DominatesFlat(vals, j*d, i*d, d)
			}
			if !dominated {
				sky = append(sky, i)
			}
		}
		return sky
	}
	for name, hook := range map[string]func(vals []float64, n int) []int{
		"exact": skyline,
		"omits-one": func(vals []float64, n int) []int {
			sky := skyline(vals, n)
			return slices.Delete(sky, len(sky)/2, len(sky)/2+1)
		},
		"nil": func([]float64, int) []int { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			calls := 0
			opt := Options{
				RebuildFraction: 0.05,
				Rebuild: func(vals []float64, n int) ([]int, []int32) {
					calls++
					return hook(vals, n), nil
				},
			}
			// Enough points that rebuilds exceed rebuildMinEngine and
			// actually reach the hook.
			runRandomOps(t, dataset.Independent, d, 900, 0.25, 0, opt, 13)
			if calls == 0 {
				t.Fatalf("rebuild hook never invoked")
			}
		})
	}
}

// TestIndexRebuildPreservesMembership checks the invariant rebuilds rely
// on: recomputing the live set's skyline yields the maintained set, so a
// forced rebuild must not fire events or change membership.
func TestIndexRebuildPreservesMembership(t *testing.T) {
	m := dataset.Generate(dataset.Anticorrelated, 300, 6, 21)
	events := 0
	ix := New(6, Options{
		OnEnter: func(int32) { events++ },
		OnLeave: func(int32) { events++ },
	})
	for i := 0; i < m.N(); i++ {
		ix.Insert(m.Row(i))
	}
	before := sortedSkyline(ix)
	eventsBefore := events
	ix.Rebuild()
	ix.Validate()
	if events != eventsBefore {
		t.Fatalf("rebuild fired %d events", events-eventsBefore)
	}
	if got := sortedSkyline(ix); !slices.Equal(got, before) {
		t.Fatalf("rebuild changed membership: %v -> %v", before, got)
	}
	if ix.Stats().Rebuilds == 0 {
		t.Fatalf("rebuild not counted")
	}
}

// TestIndexSkybandMatchesBruteForce drives the k > 1 maintenance —
// multi-owner registrations, count decrements, delete promotions —
// through the same random-churn harness, which cross-checks membership
// AND exact dominator counts against the n² oracle.
func TestIndexSkybandMatchesBruteForce(t *testing.T) {
	for _, dist := range dataset.AllDistributions {
		for _, d := range []int{1, 2, 4, 7, 16, 31} {
			for _, k := range []int{2, 3, 5} {
				runRandomOps(t, dist, d, 350, 0.35, 0, Options{K: k}, int64(1000*d+10*k)+int64(dist))
			}
		}
	}
}

func TestIndexSkybandDuplicateHeavy(t *testing.T) {
	// Coincident points never dominate each other, so duplicates on the
	// band boundary must all stay in (or out) together.
	runRandomOps(t, dataset.Independent, 3, 400, 0.4, 3, Options{K: 2}, 29)
	runRandomOps(t, dataset.Anticorrelated, 4, 350, 0.3, 4, Options{K: 4}, 31)
}

func TestIndexSkybandFrequentRebuilds(t *testing.T) {
	runRandomOps(t, dataset.Independent, 5, 350, 0.45, 0, Options{K: 3, RebuildFraction: 0.01}, 37)
}

func TestIndexSkybandNoRebuilds(t *testing.T) {
	runRandomOps(t, dataset.Anticorrelated, 4, 350, 0.45, 0, Options{K: 2, RebuildFraction: math.Inf(1)}, 41)
}

// TestIndexSkybandRebuildHook drives escalation through an external
// k-skyband hook that returns counts, as the public Engine-backed hook
// does.
func TestIndexSkybandRebuildHook(t *testing.T) {
	const d, k = 4, 3
	calls := 0
	opt := Options{
		K:               k,
		RebuildFraction: 0.05,
		Rebuild: func(vals []float64, n int) ([]int, []int32) {
			calls++
			var band []int
			var counts []int32
			for i := 0; i < n; i++ {
				doms := 0
				for j := 0; j < n && doms < k; j++ {
					if j != i && point.DominatesFlat(vals, j*d, i*d, d) {
						doms++
					}
				}
				if doms < k {
					band = append(band, i)
					counts = append(counts, int32(doms))
				}
			}
			return band, counts
		},
	}
	runRandomOps(t, dataset.Independent, d, 900, 0.25, 0, opt, 43)
	if calls == 0 {
		t.Fatalf("rebuild hook never invoked")
	}
}

// TestIndexKGENn checks k ≥ n: with more budget than points, everything
// is in the band and deletes never promote (there is nothing out of
// band to promote).
func TestIndexKGENn(t *testing.T) {
	m := dataset.Generate(dataset.Anticorrelated, 40, 3, 5)
	ix := New(3, Options{K: 1000})
	var slots []int32
	for i := 0; i < m.N(); i++ {
		slot, entered := ix.Insert(m.Row(i))
		if !entered {
			t.Fatalf("insert %d left the band with k=1000 > n", i)
		}
		slots = append(slots, slot)
	}
	if ix.SkylineSize() != m.N() {
		t.Fatalf("band size %d, want %d", ix.SkylineSize(), m.N())
	}
	ix.Validate()
	for _, s := range slots {
		ix.Delete(s)
		ix.Validate()
	}
	if ix.Len() != 0 || ix.SkylineSize() != 0 {
		t.Fatalf("index not empty after deleting everything")
	}
}

// TestIndexEqualNormTie: one ulp more in one coordinate of a row near 1
// leaves the computed L1 norm unchanged, so a dominator and the row it
// dominates carry equal norms. Either insertion order must still leave
// the dominated row out of the skyline, and counted once in the
// 2-skyband.
func TestIndexEqualNormTie(t *testing.T) {
	const d = 8
	q := make([]float64, d)
	for i := range q {
		q[i] = 0.9
	}
	p := slices.Clone(q)
	p[0] = math.Nextafter(0.9, 1)
	if point.L1(p) != point.L1(q) {
		t.Fatalf("norms %v and %v no longer tie; the case tests nothing", point.L1(p), point.L1(q))
	}
	for _, k := range []int{1, 2} {
		for _, order := range [][][]float64{{q, p}, {p, q}} {
			ix := New(d, Options{K: k})
			for _, r := range order {
				ix.Insert(r)
			}
			ix.Validate()
			want, cnt := bruteBand(ix, ix.AppendLiveSlots(nil), k)
			if got := sortedSkyline(ix); !slices.Equal(got, want) {
				t.Fatalf("k=%d, p first=%v: band %v, oracle %v", k, order[0][0] != 0.9, got, want)
			}
			for _, s := range want {
				if c := ix.DominatorCount(s); c != cnt[s] {
					t.Fatalf("k=%d, p first=%v: slot %d count %d, oracle %d", k, order[0][0] != 0.9, s, c, cnt[s])
				}
			}
		}
	}
}

// TestIndexCodesClamp inserts, after the band's last refit, rows the
// band's quantizer was not fitted to: a column moved far below its
// fitted minimum or far above its maximum, to +0 or −0 below the
// minimum, and off the value of a column that was constant when the
// quantizer was fitted. Each is coded clamped by the old map, and the
// band, its counts and the code column must stay exact through the
// inserts and through deleting them again. The base rows lie on a
// surface, so the band holds all 200 of them and cannot double again.
func TestIndexCodesClamp(t *testing.T) {
	for _, d := range []int{3, 8, 16} {
		for _, k := range []int{1, 2} {
			rng := rand.New(rand.NewSource(int64(59 + 10*d + k)))
			ix := New(d, Options{K: k, RebuildFraction: math.Inf(1)})
			var base, live []int32
			check := func(what string) {
				t.Helper()
				ix.Validate()
				want, cnt := bruteBand(ix, live, k)
				if got := sortedSkyline(ix); !slices.Equal(got, want) {
					t.Fatalf("d=%d k=%d %s: band %v, oracle %v", d, k, what, got, want)
				}
				for _, s := range want {
					if c := ix.DominatorCount(s); c != cnt[s] {
						t.Fatalf("d=%d k=%d %s: slot %d count %d, oracle %d", d, k, what, s, c, cnt[s])
					}
				}
			}
			row := make([]float64, d)
			for i := 0; i < 200; i++ {
				sum := 0.0
				for j := range row[:d-1] {
					row[j] = rng.Float64()
					sum += row[j]
				}
				for j := range row[:d-1] {
					row[j] *= float64(d-1) / 2 / sum
				}
				row[d-1] = 0.5 // constant when the quantizer is fitted
				s, _ := ix.Insert(row)
				base = append(base, s)
			}
			live = slices.Clone(base)
			check("base")
			fitted := ix.pivotAt

			var extremes []int32
			insert := func(what string, j int, v float64) {
				copy(row, ix.Row(base[rng.Intn(len(base))]))
				row[j] = v
				s, _ := ix.Insert(row)
				extremes = append(extremes, s)
				live = append(live, s)
				check(what)
			}
			for i := 0; i < 6; i++ {
				j := rng.Intn(d - 1)
				insert("far below", j, -1e6)
				insert("far above", j, 1e6)
				insert("+0", j, 0)
				insert("-0", j, math.Copysign(0, -1))
				insert("constant column below", d-1, 0.25)
				insert("constant column above", d-1, 0.75)
			}
			for i := len(extremes) - 1; i >= 0; i-- {
				ix.Delete(extremes[i])
				live = slices.DeleteFunc(live, func(s int32) bool { return s == extremes[i] })
				check("delete")
			}
			if ix.pivotAt != fitted {
				t.Fatalf("d=%d k=%d: the band was refitted at %d rows; no row was coded clamped", d, k, ix.pivotAt)
			}
		}
	}
}

// TestIndexWideRows: past point.MaxDims there is no pivot, every mask is
// 0 and the filter passes every row — the band must still be exact.
func TestIndexWideRows(t *testing.T) {
	const d = point.MaxDims + 9
	rng := rand.New(rand.NewSource(47))
	for _, k := range []int{1, 2} {
		ix := New(d, Options{K: k, RebuildFraction: 0.2})
		var live []int32
		row := make([]float64, d)
		for op := 0; op < 300; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				ix.Delete(live[i])
				live = slices.Delete(live, i, i+1)
				continue
			}
			for i := range row {
				row[i] = float64(rng.Intn(3))
			}
			s, _ := ix.Insert(row)
			live = append(live, s)
		}
		ix.Validate()
		want, cnt := bruteBand(ix, live, k)
		if got := sortedSkyline(ix); !slices.Equal(got, want) {
			t.Fatalf("k=%d: band %v, oracle %v", k, got, want)
		}
		for _, s := range want {
			if c := ix.DominatorCount(s); c != cnt[s] {
				t.Fatalf("k=%d: slot %d count %d, oracle %d", k, s, c, cnt[s])
			}
		}
		if ix.Stats().Rebuilds == 0 {
			t.Fatalf("k=%d: no rebuild fired", k)
		}
	}
}

func TestIndexEmptyAndSingle(t *testing.T) {
	ix := New(3, Options{})
	if ix.Len() != 0 || ix.SkylineSize() != 0 {
		t.Fatalf("empty index reports %d/%d", ix.Len(), ix.SkylineSize())
	}
	if ix.Delete(0) {
		t.Fatalf("delete on empty index reported live")
	}
	slot, entered := ix.Insert([]float64{1, 2, 3})
	if !entered || ix.SkylineSize() != 1 {
		t.Fatalf("single insert must enter the skyline")
	}
	if !ix.Delete(slot) || ix.Len() != 0 || ix.SkylineSize() != 0 {
		t.Fatalf("delete of only point must empty the index")
	}
	if ix.Delete(slot) {
		t.Fatalf("double delete reported live")
	}
}

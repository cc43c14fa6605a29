package stream

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"skybench"
	"skybench/internal/dataset"
	"skybench/internal/point"
	"skybench/internal/verify"
)

// oracleCheck recomputes the skyline — or the k-skyband, when the index
// maintains one — of the surviving rows with a fresh Engine.Run under
// the same preferences, and compares ID sets (and exact dominator
// counts) with the index's snapshot.
func oracleCheck(t *testing.T, eng *skybench.Engine, ix *SkylineIndex, prefs []skybench.Pref, liveIDs []ID, liveRows [][]float64) {
	t.Helper()
	ds, err := skybench.NewDataset(liveRows)
	if err != nil {
		t.Fatalf("oracle dataset: %v", err)
	}
	q := skybench.Query{Prefs: prefs}
	if k := ix.k; k > 1 {
		q.SkybandK = k
	}
	res, err := eng.Run(context.Background(), ds, q)
	if err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	want := make([]ID, len(res.Indices))
	wantCnt := make(map[ID]int32, len(res.Indices))
	for i, idx := range res.Indices {
		want[i] = liveIDs[idx]
		if res.Counts != nil {
			wantCnt[liveIDs[idx]] = res.Counts[i]
		}
	}
	slices.Sort(want)

	if ix.k > 1 && len(res.Indices) > 0 && res.Counts == nil {
		t.Fatalf("skyband oracle query returned nil Counts")
	}
	snap := ix.Snapshot()
	got := slices.Clone(snap.IDs())
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("band IDs %v, oracle %v (live %d)", got, want, len(liveIDs))
	}
	if got := skylineSize(ix); got != len(want) {
		t.Fatalf("SkylineSize %d, oracle %d", got, len(want))
	}
	if res.Counts != nil {
		for i := 0; i < snap.Len(); i++ {
			if c, w := int32(snap.Count(i)), wantCnt[snap.ID(i)]; c != w {
				t.Fatalf("id %d dominator count %d, oracle %d", snap.ID(i), c, w)
			}
		}
	}
}

// skylineSize is the band size the index's core keeps.
func skylineSize(x *SkylineIndex) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.core.SkylineSize()
}

// inSkyline reports whether id is live and currently in the maintained
// band (the skyline, or the k-skyband).
func inSkyline(x *SkylineIndex, id ID) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	slot, ok := x.loc[id]
	return ok && x.core.InSkyline(slot)
}

// TestSkylineIndexMatchesEngineOracle is the cross-surface property
// test: N random inserts/deletes against a SkylineIndex, cross-checked
// against a fresh Engine.Run over the surviving rows — across minimize,
// maximize, and subspace preference sets, so the index's private
// preference staging can never drift from the Engine's.
func TestSkylineIndexMatchesEngineOracle(t *testing.T) {
	eng := skybench.NewEngine(0)
	defer eng.Close()

	cases := []struct {
		name  string
		d     int
		prefs []skybench.Pref
	}{
		{"min-d4", 4, nil},
		{"max-d3", 3, []skybench.Pref{skybench.Max, skybench.Max, skybench.Max}},
		{"mixed-d5", 5, []skybench.Pref{skybench.Min, skybench.Max, skybench.Min, skybench.Max, skybench.Min}},
		{"subspace-d6", 6, []skybench.Pref{skybench.Ignore, skybench.Min, skybench.Ignore, skybench.Max, skybench.Min, skybench.Ignore}},
		{"min-d8", 8, nil},
	}
	for _, tc := range cases {
		for _, dist := range []dataset.Distribution{dataset.Independent, dataset.Anticorrelated} {
			t.Run(tc.name+"-"+dist.String(), func(t *testing.T) {
				runEngineOracleOps(t, eng, tc.d, 0, tc.prefs, dist, 600)
			})
		}
	}
}

// runEngineOracleOps drives one SkylineIndex (band parameter k; 0 =
// skyline) through a random insert/delete mix, cross-checking the
// snapshot against a fresh Engine.Run every few operations.
func runEngineOracleOps(t *testing.T, eng *skybench.Engine, d, k int, prefs []skybench.Pref, dist dataset.Distribution, nOps int) {
	t.Helper()
	m := dataset.Generate(dist, nOps, d, int64(d)*17+int64(k)*101+int64(dist))
	rng := rand.New(rand.NewSource(int64(d) + int64(k)*7 + 31))

	ix, err := New(d, Config{Prefs: prefs, SkybandK: k})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer ix.Close()

	var liveIDs []ID
	var liveRows [][]float64
	next := 0
	for op := 0; op < nOps; op++ {
		if len(liveIDs) > 0 && rng.Float64() < 0.35 {
			i := rng.Intn(len(liveIDs))
			if !ix.Delete(liveIDs[i]) {
				t.Fatalf("delete of live id %d failed", liveIDs[i])
			}
			last := len(liveIDs) - 1
			liveIDs[i], liveRows[i] = liveIDs[last], liveRows[last]
			liveIDs, liveRows = liveIDs[:last], liveRows[:last]
		} else if next < m.N() {
			row := m.Row(next)
			next++
			id, err := ix.Insert(row)
			if err != nil {
				t.Fatalf("insert: %v", err)
			}
			liveIDs = append(liveIDs, id)
			liveRows = append(liveRows, row)
		}
		if op == nOps/2 {
			escalate(t, ix, prefs)
		}
		if op%40 == 39 || op == nOps-1 {
			oracleCheck(t, eng, ix, prefs, liveIDs, liveRows)
		}
	}
	if ix.Len() != len(liveIDs) {
		t.Fatalf("Len %d, want %d", ix.Len(), len(liveIDs))
	}
}

// escalate forces a full rebuild. It inserts BandK copies of a row that
// dominates every live row (all of them in [0, 1] under prefs), which
// leaves every other row registered under each copy; deleting the first
// copy then orphans more than half the live set. The copies are gone
// when it returns.
func escalate(t *testing.T, ix *SkylineIndex, prefs []skybench.Pref) {
	t.Helper()
	before := ix.Stats().Rebuilds
	p := make([]float64, ix.D())
	for j := range p {
		p[j] = -1
		if prefs != nil && prefs[j] == skybench.Max {
			p[j] = 2
		}
	}
	ids := make([]ID, ix.k)
	for i := range ids {
		id, err := ix.Insert(p)
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		if !ix.Delete(id) {
			t.Fatalf("delete of dominating copy %d failed", id)
		}
	}
	if ix.Stats().Rebuilds == before {
		t.Fatalf("deleting a row that dominates the live set did not escalate (live %d)", ix.Len())
	}
}

// TestSkybandIndexMatchesEngineOracle extends the cross-surface
// property test to incremental k-skyband maintenance: the maintained
// band and its per-point dominator counts must match a fresh
// Engine.Run skyband query over the surviving rows, across preference
// sets × distributions × k.
func TestSkybandIndexMatchesEngineOracle(t *testing.T) {
	eng := skybench.NewEngine(0)
	defer eng.Close()

	cases := []struct {
		name  string
		d     int
		prefs []skybench.Pref
	}{
		{"min-d4", 4, nil},
		{"mixed-d5", 5, []skybench.Pref{skybench.Min, skybench.Max, skybench.Min, skybench.Max, skybench.Min}},
		{"subspace-d6", 6, []skybench.Pref{skybench.Ignore, skybench.Min, skybench.Ignore, skybench.Max, skybench.Min, skybench.Ignore}},
	}
	for _, tc := range cases {
		for _, dist := range []dataset.Distribution{dataset.Independent, dataset.Anticorrelated} {
			for _, k := range []int{2, 4} {
				t.Run(fmt.Sprintf("%s-%s-k%d", tc.name, dist, k), func(t *testing.T) {
					runEngineOracleOps(t, eng, tc.d, k, tc.prefs, dist, 450)
				})
			}
		}
	}
}

// TestDeltaEventsReconstructMembership replays OnDelta events into a
// shadow set and checks it always equals the snapshot.
func TestDeltaEventsReconstructMembership(t *testing.T) {
	shadow := make(map[ID][]float64)
	ix, err := New(4, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ix.OnDelta(func(entered, left []Point) {
		for _, p := range left {
			if _, ok := shadow[p.ID]; !ok {
				t.Fatalf("left event for id %d not in shadow", p.ID)
			}
			delete(shadow, p.ID)
		}
		for _, p := range entered {
			if _, ok := shadow[p.ID]; ok {
				t.Fatalf("enter event for id %d already in shadow", p.ID)
			}
			shadow[p.ID] = append([]float64(nil), p.Values...)
		}
	})
	defer ix.Close()

	m := dataset.Generate(dataset.Anticorrelated, 500, 4, 77)
	rng := rand.New(rand.NewSource(78))
	var live []ID
	next := 0
	for op := 0; op < 500; op++ {
		if len(live) > 0 && rng.Float64() < 0.4 {
			i := rng.Intn(len(live))
			ix.Delete(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else if next < m.N() {
			id, err := ix.Insert(m.Row(next))
			if err != nil {
				t.Fatalf("insert: %v", err)
			}
			live = append(live, id)
			next++
		}
		if op == 250 {
			escalate(t, ix, nil) // its resurrections reach the shadow as events too
		}
		snap := ix.Snapshot()
		if snap.Len() != len(shadow) {
			t.Fatalf("op %d: shadow has %d points, snapshot %d", op, len(shadow), snap.Len())
		}
		for i := 0; i < snap.Len(); i++ {
			vals, ok := shadow[snap.ID(i)]
			if !ok {
				t.Fatalf("op %d: snapshot id %d missing from shadow", op, snap.ID(i))
			}
			if !slices.Equal(vals, snap.Row(i)) {
				t.Fatalf("op %d: id %d values %v, shadow %v", op, snap.ID(i), snap.Row(i), vals)
			}
		}
	}
	st := ix.Stats()
	if st.Entered == 0 || st.Left == 0 {
		t.Fatalf("no membership churn recorded: %+v", st)
	}
}

// TestWindowSlides checks that a full window evicts oldest-first and its
// skyline always equals the skyline of the last W pushed rows.
func TestWindowSlides(t *testing.T) {
	eng := skybench.NewEngine(0)
	defer eng.Close()

	const w, d, total = 64, 3, 400
	win, err := NewWindow(w, d, Config{})
	if err != nil {
		t.Fatalf("NewWindow: %v", err)
	}
	defer win.Close()

	m := dataset.Generate(dataset.Independent, total, d, 5)
	var ids []ID
	for i := 0; i < total; i++ {
		id, err := win.Push(m.Row(i))
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		ids = append(ids, id)
		wantLen := min(i+1, w)
		if win.Len() != wantLen {
			t.Fatalf("push %d: Len %d, want %d", i, win.Len(), wantLen)
		}
		if oldest := win.ring[win.head]; oldest != ids[max(0, i+1-w)] {
			t.Fatalf("push %d: oldest %d, want %d", i, oldest, ids[max(0, i+1-w)])
		}
		if i%25 == 24 || i == total-1 {
			lo := max(0, i+1-w)
			var rows [][]float64
			for j := lo; j <= i; j++ {
				rows = append(rows, m.Row(j))
			}
			ds, _ := skybench.NewDataset(rows)
			res, err := eng.Run(context.Background(), ds, skybench.Query{})
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			want := make([]ID, len(res.Indices))
			for k, idx := range res.Indices {
				want[k] = ids[lo+idx]
			}
			slices.Sort(want)
			got := slices.Clone(win.Snapshot().IDs())
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("push %d: window skyline %v, oracle %v", i, got, want)
			}
		}
	}
}

// TestSnapshotConcurrentReaders runs one writer against many snapshot
// readers; under -race this is the data-race probe for the epoch/COW
// publication path — with the default configuration, with an
// escalation forced while readers hold snapshots (for the skyline and
// for a 3-skyband), and through a sliding Window whose every Push past
// capacity is an eviction plus an insert.
func TestSnapshotConcurrentReaders(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		window   int // > 0: a Window of this capacity, insert-only
		escalate bool
	}{
		{name: "default"},
		{name: "escalating", escalate: true},
		{name: "escalating-k3", cfg: Config{SkybandK: 3}, escalate: true},
		{name: "window-500", window: 500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ix *SkylineIndex
			var insert func(p []float64) (ID, error)
			if tc.window > 0 {
				win, err := NewWindow(tc.window, 4, tc.cfg)
				if err != nil {
					t.Fatalf("NewWindow: %v", err)
				}
				ix, insert = win.x, win.Push
			} else {
				var err error
				if ix, err = New(4, tc.cfg); err != nil {
					t.Fatalf("New: %v", err)
				}
				insert = ix.Insert
			}
			defer ix.Close()

			m := dataset.Generate(dataset.Independent, 3000, 4, 9)
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var lastEpoch uint64
					for {
						select {
						case <-stop:
							return
						default:
						}
						snap := ix.Snapshot()
						if e := snap.epoch; e < lastEpoch {
							t.Errorf("epoch went backwards: %d -> %d", lastEpoch, e)
							return
						} else {
							lastEpoch = e
						}
						// Read every row: the race detector flags any writer
						// mutation of published storage.
						for i := 0; i < snap.Len(); i++ {
							if snap.ID(i) == 0 {
								t.Errorf("zero ID in snapshot")
								return
							}
							_ = snap.Row(i)[0]
						}
					}
				}()
			}
			rng := rand.New(rand.NewSource(10))
			var live []ID
			for i := 0; i < m.N(); i++ {
				if tc.window == 0 && len(live) > 50 && rng.Float64() < 0.45 {
					j := rng.Intn(len(live))
					ix.Delete(live[j])
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				id, err := insert(m.Row(i))
				if err != nil {
					t.Fatalf("insert: %v", err)
				}
				live = append(live, id)
				if tc.escalate && i == m.N()/2 {
					escalate(t, ix, nil)
				}
			}
			close(stop)
			wg.Wait()

			// A snapshot taken with no concurrent writer is cached: the same
			// pointer must come back until the next membership change.
			s1, s2 := ix.Snapshot(), ix.Snapshot()
			if s1 != s2 {
				t.Fatalf("idle snapshots not cached")
			}
		})
	}
}

func TestValidationAndLifecycle(t *testing.T) {
	if _, err := New(0, Config{}); err == nil {
		t.Fatal("d=0 accepted")
	}
	if _, err := New(32, Config{}); err == nil {
		t.Fatal("d=32 accepted (MaxDims is 31)")
	}
	if _, err := New(2, Config{Prefs: []skybench.Pref{skybench.Min}}); err == nil {
		t.Fatal("pref arity mismatch accepted")
	}
	if _, err := New(2, Config{Prefs: []skybench.Pref{skybench.Ignore, skybench.Ignore}}); err == nil {
		t.Fatal("all-Ignore prefs accepted")
	}
	if _, err := New(2, Config{Prefs: []skybench.Pref{skybench.Pref(42), skybench.Min}}); err == nil {
		t.Fatal("invalid pref accepted")
	}
	if _, err := NewWindow(0, 2, Config{}); err == nil {
		t.Fatal("zero-capacity window accepted")
	}

	ix, err := New(2, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := ix.Insert([]float64{1}); err == nil {
		t.Fatal("short point accepted")
	}
	if _, err := ix.Insert([]float64{1, math.NaN()}); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := ix.Insert([]float64{math.Inf(1), 0}); err == nil {
		t.Fatal("+Inf accepted")
	}
	if _, err := ix.InsertBatch([][]float64{{1, 2}, {3, math.Inf(-1)}}); err == nil {
		t.Fatal("batch with -Inf accepted")
	}
	if ix.Len() != 0 {
		t.Fatalf("failed batch mutated the index: Len=%d", ix.Len())
	}

	ids, err := ix.InsertBatch([][]float64{{1, 2}, {2, 1}, {3, 3}})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(ids) != 3 || !ix.Contains(ids[2]) || !inSkyline(ix, ids[0]) || inSkyline(ix, ids[2]) {
		t.Fatalf("batch state wrong: %v", ids)
	}
	if v := ix.origRow(ix.loc[ids[1]]); !slices.Equal(v, []float64{2, 1}) {
		t.Fatalf("stored values: %v", v)
	}
	if ix.Delete(ID(9999)) {
		t.Fatal("delete of unknown ID succeeded")
	}

	ix.Close()
	ix.Close() // idempotent
	if _, err := ix.Insert([]float64{0, 0}); err == nil {
		t.Fatal("insert after Close accepted")
	}
	if ix.Delete(ids[0]) {
		t.Fatal("delete after Close succeeded")
	}
	if snap := ix.Snapshot(); snap.Len() != 2 {
		t.Fatalf("snapshot after Close: %d", snap.Len())
	}
}

// TestForcedRebuildKeepsState covers the forced rebuild: it keeps the
// band's membership, is counted, and starts no goroutine — the index
// rebuilds on the mutating goroutine, with no worker pool of its own.
func TestForcedRebuildKeepsState(t *testing.T) {
	ix, err := New(6, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer ix.Close()
	m := dataset.Generate(dataset.Anticorrelated, 600, 6, 13)
	for i := 0; i < m.N(); i++ {
		if _, err := ix.Insert(m.Row(i)); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	before := slices.Clone(ix.Snapshot().IDs())
	slices.Sort(before)
	goroutines := runtime.NumGoroutine()
	ix.rebuild()
	// At GOMAXPROCS 1 a worker pool would have no workers to start, so
	// the count could not show one.
	if got := runtime.NumGoroutine(); runtime.GOMAXPROCS(0) > 1 && got > goroutines {
		t.Fatalf("rebuild grew the goroutine count from %d to %d", goroutines, got)
	}
	after := slices.Clone(ix.Snapshot().IDs())
	slices.Sort(after)
	if !slices.Equal(before, after) {
		t.Fatalf("rebuild changed membership")
	}
	if ix.Stats().Rebuilds == 0 {
		t.Fatalf("rebuild not counted")
	}
}

// TestRebuildEqualNormTie holds a rebuild to the brute-force band on
// rows whose computed norms tie with the rows they dominate: 300 rows of
// d = 8 on the surface Σ = 7.2, each with a twin one ulp larger in one
// coordinate whose computed norm is the same. It guards the placement
// pass end to end: its sort must order such ties on the coordinates,
// and its one probe per row must skip no band row for an equal norm.
func TestRebuildEqualNormTie(t *testing.T) {
	const d, pairs = 8, 300
	rng := rand.New(rand.NewSource(53))
	var rows [][]float64
	for len(rows) < 2*pairs {
		r := make([]float64, d)
		sum := 0.0
		for j := range r {
			r[j] = 0.1 + rng.Float64()
			sum += r[j]
		}
		for j := range r {
			r[j] *= 7.2 / sum
		}
		twin := slices.Clone(r)
		j := rng.Intn(d)
		twin[j] = math.Nextafter(twin[j], math.Inf(1))
		if point.L1(twin) == point.L1(r) {
			rows = append(rows, r, twin)
		}
	}
	for _, k := range []int{1, 2} {
		ix, err := New(d, Config{SkybandK: k})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		row := make(map[ID]int, len(rows))
		for i, r := range rows {
			id, err := ix.Insert(r)
			if err != nil {
				t.Fatalf("insert: %v", err)
			}
			row[id] = i
		}
		band, counts := verify.BruteForceSkyband(point.FromRows(rows), k)
		want := make(map[int]int, len(band))
		for i, idx := range band {
			want[idx] = int(counts[i])
		}
		for _, stage := range []string{"maintained", "rebuilt"} {
			if stage == "rebuilt" {
				ix.rebuild()
			}
			snap := ix.Snapshot()
			if snap.Len() != len(band) {
				t.Errorf("k=%d %s: band of %d rows, oracle %d", k, stage, snap.Len(), len(band))
			}
			for i := 0; i < snap.Len(); i++ {
				idx := row[snap.ID(i)]
				if c, ok := want[idx]; !ok || c != snap.Count(i) {
					t.Fatalf("k=%d %s: row %d in the band with count %d, oracle in=%v count %d", k, stage, idx, snap.Count(i), ok, c)
				}
			}
		}
		ix.Close()
	}
}

// BenchmarkInsertSteadyState measures the per-update cost of a warm
// index under insert/delete churn at the acceptance workload's d.
func BenchmarkInsertSteadyState(b *testing.B) {
	const warm, d = 20000, 8
	m := dataset.Generate(dataset.Independent, warm+1, d, 42)
	ix, err := New(d, Config{})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer ix.Close()
	ids := make([]ID, 0, warm)
	for i := 0; i < warm; i++ {
		id, err := ix.Insert(m.Row(i))
		if err != nil {
			b.Fatalf("insert: %v", err)
		}
		ids = append(ids, id)
	}
	rng := rand.New(rand.NewSource(1))
	row := slices.Clone(m.Row(warm))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Replace a random live point: one delete + one insert, holding
		// the live size constant.
		j := rng.Intn(len(ids))
		ix.Delete(ids[j])
		row[0] = rng.Float64()
		id, err := ix.Insert(row)
		if err != nil {
			b.Fatalf("insert: %v", err)
		}
		ids[j] = id
		row[0], row[d-1] = row[d-1], row[0]
	}
}

// BenchmarkRebuild times one forced rebuild of a 50 000-row, d = 8
// index, the pass escalation runs, per distribution and band depth.
// Anticorrelated data, whose band is a large share of the live set, is
// the rebuild's hard case.
func BenchmarkRebuild(b *testing.B) {
	const n, d = 50000, 8
	for _, dist := range dataset.AllDistributions {
		m := dataset.Generate(dist, n, d, 7)
		for _, k := range []int{1, 3} {
			b.Run(fmt.Sprintf("%v/k=%d", dist, k), func(b *testing.B) {
				x, err := New(d, Config{SkybandK: k})
				if err != nil {
					b.Fatalf("New: %v", err)
				}
				defer x.Close()
				for i := 0; i < m.N(); i++ {
					if _, err := x.Insert(m.Row(i)); err != nil {
						b.Fatalf("insert: %v", err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					x.rebuild()
				}
			})
		}
	}
}

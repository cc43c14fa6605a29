package skybench_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"skybench"
	"skybench/stream"

	"skybench/internal/point"
	"skybench/internal/verify"
)

// countingSource is a stream.SkylineIndex — BandSource capability
// included, through the embedding — that counts how often the live set
// is materialized out of it.
type countingSource struct {
	*stream.SkylineIndex
	snapshots atomic.Int64
}

func (s *countingSource) LiveSnapshot() ([]float64, []uint64, uint64) {
	s.snapshots.Add(1)
	return s.SkylineIndex.LiveSnapshot()
}

// plainSource is the same index behind the bare StreamSource contract:
// the source a Collection had before BandSource existed.
type plainSource struct {
	ix        *stream.SkylineIndex
	snapshots atomic.Int64
}

func (s *plainSource) D() int            { return s.ix.D() }
func (s *plainSource) LiveEpoch() uint64 { return s.ix.LiveEpoch() }
func (s *plainSource) LiveSnapshot() ([]float64, []uint64, uint64) {
	s.snapshots.Add(1)
	return s.ix.LiveSnapshot()
}

// bandRow is one result row as a caller can observe it.
type bandRow struct {
	index int
	id    uint64
	row   string
	count int32 // -1: the result carries no counts
}

// resultRows lists a QueryResult as (index, ID, row, count), ascending
// by index.
func resultRows(t *testing.T, r *skybench.QueryResult) []bandRow {
	t.Helper()
	out := make([]bandRow, r.Len())
	for p := range out {
		id, ok := r.ID(p)
		if !ok {
			t.Fatal("stream-backed result has no IDs")
		}
		out[p] = bandRow{index: r.Indices[p], id: id, row: fmt.Sprint(r.Row(p)), count: -1}
		if r.Counts != nil {
			out[p].count = r.Counts[p]
		}
	}
	slices.SortFunc(out, func(a, b bandRow) int { return a.index - b.index })
	return out
}

// engineRows is the materialize-and-run answer in the same form: one
// Engine.Run over the index's LiveSnapshot.
func engineRows(t *testing.T, eng *skybench.Engine, ix *stream.SkylineIndex, q skybench.Query) (rows []bandRow, vals []float64, epoch uint64) {
	t.Helper()
	vals, ids, epoch := ix.LiveSnapshot()
	d := ix.D()
	ds, err := skybench.DatasetFromFlat(vals, len(ids), d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), ds, q)
	if err != nil {
		t.Fatal(err)
	}
	rows = make([]bandRow, len(res.Indices))
	for p, i := range res.Indices {
		rows[p] = bandRow{index: i, id: ids[i], row: fmt.Sprint(vals[i*d : (i+1)*d]), count: -1}
		if res.Counts != nil {
			rows[p].count = res.Counts[p]
		}
	}
	slices.SortFunc(rows, func(a, b bandRow) int { return a.index - b.index })
	return rows, vals, epoch
}

// TestBandAnswerExactTrace is the exactness bound on answering from the
// maintained band. A seeded mutation trace — inserts, deletes of band
// and non-band points, escalated rebuilds — runs over indexes with
// k ∈ {1, 3} and prefs ∈ {none, one Max, one Ignore}; after every step
// each query the band answers (k′ = k, and k′ ∈ {1, 2} against the k = 3
// index) must equal ix.Snapshot() as an (ID, count) set, Engine.Run over
// LiveSnapshot() as an (index, ID, row, count) set, and the brute force;
// its Epoch must be the live epoch of the membership it is exact for;
// and a second Run at that epoch must be an allocation-free hit.
func TestBandAnswerExactTrace(t *testing.T) {
	const d, n0, steps = 4, 280, 80
	prefSets := map[string][]skybench.Pref{
		"min":    nil,
		"max":    {skybench.Min, skybench.Max, skybench.Min, skybench.Min},
		"ignore": {skybench.Min, skybench.Min, skybench.Ignore, skybench.Min},
	}
	ctx := context.Background()
	for name, prefs := range prefSets {
		for _, k := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				eng := skybench.NewEngine(2)
				defer eng.Close()
				ix, err := stream.New(d, stream.Config{Prefs: prefs, SkybandK: k})
				if err != nil {
					t.Fatal(err)
				}
				defer ix.Close()
				src := &countingSource{SkylineIndex: ix}
				st := skybench.NewStoreWithEngine(eng)
				defer st.Close()
				col, err := st.AttachStream("live", src, skybench.CollectionOptions{})
				if err != nil {
					t.Fatal(err)
				}

				rng := rand.New(rand.NewSource(int64(7*k + len(name))))
				var live []stream.ID
				insert := func() {
					p := make([]float64, d)
					for j := range p {
						p[j] = float64(rng.Intn(40)) / 40 // a coarse grid: ties and duplicates happen
					}
					id, err := ix.Insert(p)
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, id)
				}
				remove := func(band bool) {
					inBand := map[stream.ID]bool{}
					for _, id := range ix.Snapshot().IDs() {
						inBand[id] = true
					}
					for tries := 0; tries < 4*len(live); tries++ {
						p := rng.Intn(len(live))
						if inBand[live[p]] == band {
							if !ix.Delete(live[p]) {
								t.Fatalf("delete of live id %d failed", live[p])
							}
							live[p] = live[len(live)-1]
							live = live[:len(live)-1]
							return
						}
					}
				}
				for i := 0; i < n0; i++ {
					insert()
				}

				check := func(step int) {
					t.Helper()
					for kq := 1; kq <= k; kq++ {
						q := skybench.Query{Prefs: prefs, SkybandK: kq}
						got, err := col.Run(ctx, q)
						if err != nil {
							t.Fatalf("step %d k′=%d: %v", step, kq, err)
						}
						if (got.Counts != nil) != (kq >= 2) {
							t.Fatalf("step %d k′=%d: Counts present = %v", step, kq, got.Counts != nil)
						}
						if !slices.IsSorted(got.Indices) {
							t.Fatalf("step %d k′=%d: Indices not ascending", step, kq)
						}
						rows := resultRows(t, got)

						// = Engine.Run over LiveSnapshot, as (index, ID, row, count).
						want, vals, epoch := engineRows(t, eng, ix, q)
						if !slices.Equal(rows, want) {
							t.Fatalf("step %d k′=%d: band answer differs from Engine.Run over LiveSnapshot\n got %v\nwant %v", step, kq, rows, want)
						}
						if got.Epoch != epoch || got.Epoch != ix.LiveEpoch() {
							t.Fatalf("step %d k′=%d: Epoch %d, live epoch %d", step, kq, got.Epoch, epoch)
						}
						if got.Stats.InputSize != len(live) || got.Stats.DominanceTests != 0 {
							t.Fatalf("step %d k′=%d: stats %+v, want InputSize %d and no dominance tests", step, kq, got.Stats, len(live))
						}

						// = ix.Snapshot(), as (ID, count), for the rows below k′.
						snap := ix.Snapshot()
						fromIndex := map[uint64]int32{}
						for i := 0; i < snap.Len(); i++ {
							if snap.Count(i) < kq {
								fromIndex[uint64(snap.ID(i))] = int32(snap.Count(i))
							}
						}
						if len(fromIndex) != len(rows) {
							t.Fatalf("step %d k′=%d: %d rows, Snapshot has %d below k′", step, kq, len(rows), len(fromIndex))
						}
						for _, r := range rows {
							if c, ok := fromIndex[r.id]; !ok || (kq >= 2 && c != r.count) {
								t.Fatalf("step %d k′=%d: row %+v not in Snapshot with that count (%d, %v)", step, kq, r, c, ok)
							}
						}

						// = the brute force.
						staged := stagedMatrix(t, point.FromFlat(vals, len(live), d), prefs)
						if kq == 1 {
							if !verify.SameSkyline(got.Indices, verify.BruteForce(staged)) {
								t.Fatalf("step %d: band answer differs from the brute-force skyline", step)
							}
						} else if wi, wc := verify.BruteForceSkyband(staged, kq); !verify.SameBand(got.Indices, got.Counts, wi, wc) {
							t.Fatalf("step %d k′=%d: band answer differs from the brute-force skyband", step, kq)
						}

						// Repeats at the unchanged epoch are hits that read nothing:
						// one shared handle over the miss's rows, no allocation.
						var again *skybench.QueryResult
						allocs := testing.AllocsPerRun(3, func() { again, _ = col.Run(ctx, q) })
						hit, _ := col.Run(ctx, q)
						if allocs != 0 || !again.CacheHit || hit != again || !sharesStorage(again.Indices, got.Indices) {
							t.Fatalf("step %d k′=%d: repeat at an unchanged epoch: %.0f allocs, hit %v, same handle %v, same rows %v",
								step, kq, allocs, again.CacheHit, hit == again, sharesStorage(again.Indices, got.Indices))
						}
					}
				}

				// k copies of a row dominating the live set leave every other
				// row registered under each copy, so deleting one orphans more
				// than half the live set: the trace escalates to a full rebuild.
				escalate := func(step int) {
					p := make([]float64, d)
					for j := range p {
						p[j] = -1
						if prefs != nil && prefs[j] == skybench.Max {
							p[j] = 2
						}
					}
					for i := 0; i < k; i++ {
						id, err := ix.Insert(p)
						if err != nil {
							t.Fatal(err)
						}
						live = append(live, id)
						check(step)
					}
					for i := 0; i < k; i++ {
						if !ix.Delete(live[len(live)-1]) {
							t.Fatal("delete of a dominating copy failed")
						}
						live = live[:len(live)-1]
						check(step)
					}
				}

				check(-1)
				for step := 0; step < steps; step++ {
					if step == steps/2 {
						escalate(step)
					}
					switch r := rng.Intn(10); {
					case r < 5:
						insert()
					case r < 8:
						remove(true)
					default:
						remove(false)
					}
					check(step)
				}
				if ix.Stats().Rebuilds == 0 {
					t.Fatal("the trace never escalated to a rebuild")
				}
				if n := src.snapshots.Load(); n != 0 {
					t.Fatalf("matching queries materialized the live set %d times", n)
				}
				cs, err := col.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if cs.BandAnswers == 0 || cs.BandAnswers != cs.Cache.Misses {
					t.Fatalf("an engine answered: %d misses, %d band answers", cs.Cache.Misses, cs.BandAnswers)
				}
			})
		}
	}
}

// bandFixture is a k = 2 index under one Max preference, loaded, behind a
// counting source attached with the given options.
func bandFixture(t *testing.T, opts skybench.CollectionOptions) (*skybench.Store, *countingSource, *skybench.Collection, []skybench.Pref) {
	t.Helper()
	prefs := []skybench.Pref{skybench.Min, skybench.Max, skybench.Min}
	ix, err := stream.New(3, stream.Config{Prefs: prefs, SkybandK: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ix.Close)
	if _, err := ix.InsertBatch(storeTestData(t, "independent", 400, 3, 21)); err != nil {
		t.Fatal(err)
	}
	st := skybench.NewStore(2)
	t.Cleanup(st.Close)
	src := &countingSource{SkylineIndex: ix}
	col, err := st.AttachStream("live", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, src, col, prefs
}

// TestBandRouting pins which queries are read from the maintained band
// and which are materialized and run: with a source that counts
// LiveSnapshot calls, every matching shape reads none — and runs no
// engine, makes no planner decision, and says so in its trace — and
// every non-matching shape reads exactly one per epoch and still
// returns the engine's answer. The deprecated Shards option changes
// nothing.
func TestBandRouting(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, src, col, prefs := bandFixture(t, skybench.CollectionOptions{Shards: shards})
			eng := skybench.NewEngine(2)
			defer eng.Close()
			agrees := func(name string, got *skybench.QueryResult, q skybench.Query) {
				t.Helper()
				q.Algorithm, q.Progressive = skybench.Hybrid, nil
				if want, _, _ := engineRows(t, eng, src.SkylineIndex, q); !slices.Equal(resultRows(t, got), want) {
					t.Fatalf("%s: answer differs from Engine.Run over LiveSnapshot", name)
				}
			}

			matching := map[string]skybench.Query{
				"default algorithm": {Prefs: prefs},
				"hybrid, k′ = k":    {Prefs: prefs, Algorithm: skybench.Hybrid, SkybandK: 2},
				"qflow":             {Prefs: prefs, Algorithm: skybench.QFlow},
				"auto":              {Prefs: prefs, Algorithm: skybench.Auto, SkybandK: 2},
				"tuned and traced":  {Prefs: prefs, Alpha: 64, Beta: 4, Threads: 1, Trace: true},
			}
			for name, q := range matching {
				got, err := col.Run(ctx, q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				agrees(name, got, q)
				if got.Plan != nil {
					t.Errorf("%s: a band answer carries a planner decision", name)
				}
				if q.Trace {
					if tr := got.Trace; tr == nil || !tr.Band || tr.CacheHit || tr.Epoch != got.Epoch || tr.DominanceTests != 0 || tr.InputSize != 400 {
						t.Errorf("%s: trace %+v, want a band trace at epoch %d", name, tr, got.Epoch)
					}
				}
			}
			if n := src.snapshots.Load(); n != 0 {
				t.Fatalf("matching shapes materialized the live set %d times", n)
			}
			cs, err := col.Stats()
			if err != nil {
				t.Fatal(err)
			}
			// "auto" shares the explicit hybrid k = 2 entry: four band reads.
			if cs.Cache.Misses != 4 || cs.BandAnswers != 4 || cs.Cache.Hits != 1 {
				t.Fatalf("after matching shapes: misses %d bandAnswers %d hits %d", cs.Cache.Misses, cs.BandAnswers, cs.Cache.Hits)
			}

			var batches int
			nonMatching := []struct {
				name string
				q    skybench.Query
			}{
				{"other prefs", skybench.Query{}},
				{"other prefs, auto", skybench.Query{Algorithm: skybench.Auto}},
				{"k′ > k", skybench.Query{Prefs: prefs, SkybandK: 3}},
				{"baseline algorithm", skybench.Query{Prefs: prefs, Algorithm: skybench.BSkyTree}},
				{"ablation", skybench.Query{Prefs: prefs, Ablation: skybench.Ablation{NoPrefilter: true}}},
				{"progressive", skybench.Query{Prefs: prefs, Progressive: func(b []int) { batches++ }}},
			}
			for _, tc := range nonMatching {
				if _, err := src.Insert([]float64{0.5, 0.5, 0.5}); err != nil { // a new epoch
					t.Fatal(err)
				}
				src.snapshots.Store(0)
				for rep := 0; rep < 2; rep++ {
					got, err := col.Run(ctx, tc.q)
					if err != nil {
						t.Fatalf("%s: %v", tc.name, err)
					}
					agrees(tc.name, got, tc.q)
					if tc.q.Algorithm == skybench.Auto && got.Plan == nil {
						t.Errorf("%s: a planned run carries no decision", tc.name)
					}
				}
				if n := src.snapshots.Load(); n != 1 {
					t.Errorf("%s: %d LiveSnapshot calls in one epoch, want 1", tc.name, n)
				}
			}
			if batches == 0 {
				t.Error("progressive query delivered no batch")
			}
			cs, err = col.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if cs.BandAnswers != 4 || cs.Cache.Misses == cs.BandAnswers {
				t.Fatalf("after non-matching shapes: bandAnswers %d misses %d", cs.BandAnswers, cs.Cache.Misses)
			}
		})
	}
}

// TestBandSourceOptional: a source without the capability behaves as it
// always did — one materialization per epoch, one engine run, no
// band answers — and returns the same rows as one with it.
func TestBandSourceOptional(t *testing.T) {
	ctx := context.Background()
	_, src, col, prefs := bandFixture(t, skybench.CollectionOptions{})
	plain := &plainSource{ix: src.SkylineIndex}
	st := skybench.NewStore(2)
	defer st.Close()
	pcol, err := st.AttachStream("live", plain, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := skybench.Query{Prefs: prefs, SkybandK: 2, Trace: true}
	want, err := col.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		got, err := pcol.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(resultRows(t, got), resultRows(t, want)) || got.Epoch != want.Epoch {
			t.Fatal("the two sources answer differently")
		}
		if got.Trace.Band || got.Stats.DominanceTests == 0 {
			t.Fatalf("a plain source's answer was not computed: %+v", got.Trace)
		}
	}
	cs, err := pcol.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if plain.snapshots.Load() != 1 || cs.BandAnswers != 0 || cs.Cache.Misses != 1 {
		t.Fatalf("plain source: %d materializations, bandAnswers %d, misses %d", plain.snapshots.Load(), cs.BandAnswers, cs.Cache.Misses)
	}
}

// TestBandErrorParity: the shapes that must fail fail with the same
// typed error, and the same message, whether or not the source has the
// capability — an invalid query never matches the band, it falls through
// to the engine that has always rejected it.
func TestBandErrorParity(t *testing.T) {
	cst, src, col, prefs := bandFixture(t, skybench.CollectionOptions{})
	st := skybench.NewStore(2)
	defer st.Close()
	pcol, err := st.AttachStream("live", &plainSource{ix: src.SkylineIndex}, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		q    skybench.Query
		want error
	}{
		{"wrong-length prefs", context.Background(), skybench.Query{Prefs: prefs[:2]}, skybench.ErrBadQuery},
		{"wrong-length all-min prefs", context.Background(), skybench.Query{Prefs: make([]skybench.Pref, 5)}, skybench.ErrBadQuery},
		{"invalid pref value", context.Background(), skybench.Query{Prefs: []skybench.Pref{skybench.Min, skybench.Max, 7}}, skybench.ErrBadQuery},
		{"negative k", context.Background(), skybench.Query{Prefs: prefs, SkybandK: -1}, skybench.ErrBadQuery},
		{"k ≥ 2 with a baseline", context.Background(), skybench.Query{Prefs: prefs, SkybandK: 2, Algorithm: skybench.PSkyline}, skybench.ErrBadQuery},
		{"cancelled context", canceled, skybench.Query{Prefs: prefs}, skybench.ErrCanceled},
	}
	parity := func(name string, ctx context.Context, q skybench.Query, want error) {
		t.Helper()
		_, err := col.Run(ctx, q)
		_, perr := pcol.Run(ctx, q)
		if !errors.Is(err, want) || !errors.Is(perr, want) || err.Error() != perr.Error() {
			t.Errorf("%s:\n with the capability: %v\n          without it: %v\n want both to be the same %v", name, err, perr, want)
		}
	}
	for _, tc := range cases {
		parity(tc.name, tc.ctx, tc.q, tc.want)
	}
	if n := src.snapshots.Load(); n != 1 {
		t.Errorf("the invalid shapes materialized the live set %d times, want once for the epoch", n)
	}
	if err := cst.Drop("live"); err != nil {
		t.Fatal(err)
	}
	if err := st.Drop("live"); err != nil {
		t.Fatal(err)
	}
	parity("dropped collection", context.Background(), skybench.Query{Prefs: prefs}, skybench.ErrClosed)
}

// gatedBand is a BandSource whose band read can be stalled: the stream
// index holding its lock through a rebuild, as seen by a band answer.
type gatedBand struct {
	*stream.SkylineIndex
	block atomic.Bool
	gate  chan struct{}
}

func (s *gatedBand) LiveBand() skybench.LiveBand {
	if s.block.Load() {
		<-s.gate
	}
	return s.SkylineIndex.LiveBand()
}

// TestBandAnswerDeadline: a band read stalled behind the source's lock
// is abandoned when the query's deadline passes, as a stalled
// materialization is, and AllowStale degrades it to the cached band
// answer of the earlier epoch.
func TestBandAnswerDeadline(t *testing.T) {
	ix, err := stream.New(2, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.InsertBatch([][]float64{{1, 9}, {9, 1}, {5, 5}, {6, 6}}); err != nil {
		t.Fatal(err)
	}
	src := &gatedBand{SkylineIndex: ix, gate: make(chan struct{})}
	st := skybench.NewStoreWithOptions(skybench.StoreOptions{Threads: 2, DefaultTimeout: 25 * time.Millisecond})
	defer st.Close()
	col, err := st.AttachStream("live", src, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fresh, err := col.Run(ctx, skybench.Query{})
	if err != nil || fresh.Len() != 3 {
		t.Fatalf("fresh band answer: (%v, %v)", fresh, err)
	}
	if _, err := ix.Insert([]float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	src.block.Store(true)
	defer close(src.gate)
	start := time.Now()
	if _, err := col.Run(ctx, skybench.Query{}); !errors.Is(err, skybench.ErrDeadlineExceeded) {
		t.Fatalf("stalled band read = %v, want ErrDeadlineExceeded", err)
	}
	if e := time.Since(start); e > 500*time.Millisecond {
		t.Fatalf("25ms deadline honored after %v", e)
	}
	res, err := col.Run(ctx, skybench.Query{AllowStale: true})
	if err != nil || !res.Stale || res.Epoch != fresh.Epoch || !slices.Equal(res.Indices, fresh.Indices) {
		t.Fatalf("AllowStale over a stalled band read = (%+v, %v), want the epoch-%d answer marked stale", res, err, fresh.Epoch)
	}
}

// TestBandPrefSpellings: an all-Min vector and an empty one are the same
// preferences, on either side of the match.
func TestBandPrefSpellings(t *testing.T) {
	ctx := context.Background()
	for name, ixPrefs := range map[string][]skybench.Pref{"index built with none": nil, "index built with all-min": make([]skybench.Pref, 3)} {
		ix, err := stream.New(3, stream.Config{Prefs: ixPrefs})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		if _, err := ix.InsertBatch(storeTestData(t, "anticorrelated", 200, 3, 4)); err != nil {
			t.Fatal(err)
		}
		st := skybench.NewStore(1)
		defer st.Close()
		src := &countingSource{SkylineIndex: ix}
		col, err := st.AttachStream("live", src, skybench.CollectionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		a, err := col.Run(ctx, skybench.Query{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := col.Run(ctx, skybench.Query{Prefs: make([]skybench.Pref, 3)})
		if err != nil {
			t.Fatal(err)
		}
		if !b.CacheHit || !sharesStorage(a.Indices, b.Indices) || a.Len() != ix.Snapshot().Len() || src.snapshots.Load() != 0 {
			t.Errorf("%s: hit %v, same rows %v, %d rows of %d, %d materializations",
				name, b.CacheHit, sharesStorage(a.Indices, b.Indices), a.Len(), ix.Snapshot().Len(), src.snapshots.Load())
		}
	}
}

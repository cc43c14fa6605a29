package skybench_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"skybench"
	"skybench/internal/cluster"
	"skybench/serve"
	"skybench/serve/client"
	"skybench/stream"
)

// autoPlan is what every Auto answer that ran an algorithm reports.
var autoPlan = skybench.PlannerTrace{Algorithm: "hybrid"}

// TestAutoIsHybridUnsharded is Auto's oracle property: on every kind of
// backing, an Auto answer is exactly explicit Hybrid's — the same
// indices in the same order, the same counts — for k ∈ {1, 3}: the
// explicit Hybrid query on the same collection, and on a static one
// Engine.Run over the same rows too. Every Auto answer reports hybrid in
// Plan, except one read from a stream's maintained band, which ran
// nothing and reports none. Caching is off, so every answer compared was
// computed.
func TestAutoIsHybridUnsharded(t *testing.T) {
	const n, d = 1200, 4
	ctx := context.Background()
	rows := storeTestData(t, "anticorrelated", n, d, 9)
	ds, err := skybench.NewDataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	st := skybench.NewStore(2)
	defer st.Close()
	uncached := skybench.CollectionOptions{CacheCapacity: -1}

	flat, err := st.Attach("flat", ds, uncached)
	if err != nil {
		t.Fatal(err)
	}

	bandPrefs := []skybench.Pref{skybench.Min, skybench.Max, skybench.Min, skybench.Min}
	ix, err := stream.New(d, stream.Config{Prefs: bandPrefs, SkybandK: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := ix.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	live, err := st.AttachStream("live", ix, uncached)
	if err != nil {
		t.Fatal(err)
	}

	// Two workers, each a Store behind the wire over half the rows.
	var specs []cluster.WorkerSpec
	var workerURLs []string
	for _, r := range [][2]int{{0, n / 2}, {n / 2, n}} {
		wds, err := skybench.NewDataset(rows[r[0]:r[1]])
		if err != nil {
			t.Fatal(err)
		}
		wst := skybench.NewStore(1)
		if _, err := wst.Attach("c", wds, skybench.CollectionOptions{}); err != nil {
			t.Fatal(err)
		}
		srv := serve.New(wst, serve.Options{})
		hs := httptest.NewServer(srv)
		defer srv.Close()
		defer hs.Close()
		workerURLs = append(workerURLs, hs.URL)
		specs = append(specs, cluster.WorkerSpec{Addr: hs.URL, Lo: r[0], Hi: r[1]})
	}
	co, err := cluster.New(cluster.Config{Collection: "c", D: d, Workers: specs, ProbeInterval: -1, Engine: st.Engine()})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := st.AttachRemote("fleet", co, skybench.CollectionOptions{CacheCapacity: -1, CloseOnDrop: true})
	if err != nil {
		t.Fatal(err)
	}

	onCollection := func(col *skybench.Collection) func(skybench.Query) skybench.Result {
		return func(q skybench.Query) skybench.Result {
			r, err := col.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			return r.Result
		}
	}
	onEngine := func(q skybench.Query) skybench.Result {
		r, err := st.Engine().Run(ctx, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cases := []struct {
		name  string
		col   *skybench.Collection
		prefs []skybench.Pref
		want  func(skybench.Query) skybench.Result // explicit Hybrid
		band  bool
	}{
		{"static", flat, nil, onCollection(flat), false},
		{"static on the engine", flat, nil, onEngine, false},
		{"stream band", live, bandPrefs, onCollection(live), true},
		{"stream fall-through", live, nil, onCollection(live), false},
		{"cluster", remote, nil, onCollection(remote), false},
	}
	for _, tc := range cases {
		for _, k := range []int{1, 3} {
			label := fmt.Sprintf("%s k=%d", tc.name, k)
			q := skybench.Query{Prefs: tc.prefs, SkybandK: k, Algorithm: skybench.Auto, Trace: true}
			got, err := tc.col.Run(ctx, q)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			q.Algorithm, q.Trace = skybench.Hybrid, false
			want := tc.want(q)
			if !slices.Equal(got.Indices, want.Indices) || !slices.Equal(got.Counts, want.Counts) {
				t.Fatalf("%s: Auto answered %d rows %v…, explicit Hybrid %d rows %v…", label,
					got.Len(), got.Indices[:min(5, got.Len())], len(want.Indices), want.Indices[:min(5, len(want.Indices))])
			}
			if got.Trace == nil || got.Trace.Band != tc.band || got.Trace.Algorithm != "hybrid" {
				t.Fatalf("%s: trace %+v, want a hybrid trace with band=%v", label, got.Trace, tc.band)
			}
			switch {
			case tc.band && (got.Plan != nil || got.Trace.Planner != nil):
				t.Errorf("%s: a band answer reports plan %+v", label, got.Plan)
			case !tc.band && (got.Plan == nil || *got.Plan != autoPlan || got.Trace.Planner == nil || *got.Trace.Planner != autoPlan):
				t.Errorf("%s: plan %+v (trace %+v), want %+v", label, got.Plan, got.Trace.Planner, autoPlan)
			}
		}
	}

	// The workers were asked for hybrid, never for auto.
	for i, url := range workerURLs {
		cli := client.New(url)
		text, err := cli.Metrics(ctx)
		cli.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, `skyserved_query_algorithm_seconds_count{collection="c",algorithm="hybrid"}`) ||
			strings.Contains(text, `algorithm="auto"`) {
			t.Errorf("worker %d did not book hybrid runs only", i)
		}
	}
}

// TestEngineRejectsAuto: Auto is a Store-level spelling — the bare
// Engine must refuse it loudly rather than silently running some
// default.
func TestEngineRejectsAuto(t *testing.T) {
	rows := storeTestData(t, "independent", 100, 3, 5)
	ds, err := skybench.NewDataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	eng := skybench.NewEngine(1)
	defer eng.Close()
	_, err = eng.Run(context.Background(), ds, skybench.Query{Algorithm: skybench.Auto})
	if !errors.Is(err, skybench.ErrBadQuery) {
		t.Fatalf("Engine.Run(Auto) = %v, want ErrBadQuery", err)
	}
	if err == nil || !strings.Contains(err.Error(), "auto") {
		t.Errorf("error %v does not name the auto algorithm", err)
	}
}

// TestAutoCacheSharesResolvedPlan: an Auto query and the explicit Hybrid
// query share one cache entry (the key is taken after Auto is resolved),
// and an Auto hit — traced or not — still reports its Plan while an
// explicit hit reports none.
func TestAutoCacheSharesResolvedPlan(t *testing.T) {
	rows := storeTestData(t, "correlated", 2000, 4, 13)
	ds, err := skybench.NewDataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	st := skybench.NewStore(2)
	defer st.Close()
	ctx := context.Background()
	run := func(col *skybench.Collection, q skybench.Query) *skybench.QueryResult {
		t.Helper()
		r, err := col.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	auto := skybench.Query{Algorithm: skybench.Auto}

	col, err := st.Attach("auto-cache", ds, skybench.CollectionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first := run(col, auto)
	if first.Plan == nil || *first.Plan != autoPlan {
		t.Fatalf("auto miss plan %+v, want %+v", first.Plan, autoPlan)
	}
	if explicit := run(col, skybench.Query{}); explicit.Plan != nil || !slices.Equal(explicit.Indices, first.Indices) {
		t.Fatalf("explicit hybrid after auto: plan %+v, %d rows vs %d", explicit.Plan, explicit.Len(), first.Len())
	}
	hit := run(col, auto)
	traced := run(col, skybench.Query{Algorithm: skybench.Auto, Trace: true})
	if cs := col.CacheStats(); cs.Hits != 3 || cs.Entries != 1 {
		t.Fatalf("cache %+v, want 3 hits on one entry", cs)
	}
	if hit.Plan == nil || *hit.Plan != autoPlan {
		t.Errorf("auto hit plan %+v, want %+v", hit.Plan, autoPlan)
	}
	if tr := traced.Trace; tr == nil || !tr.CacheHit || tr.Planner == nil || *tr.Planner != autoPlan || traced.Plan == nil {
		t.Errorf("traced auto hit: trace %+v plan %+v", tr, traced.Plan)
	}
}

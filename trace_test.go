package skybench_test

import (
	"context"
	"testing"

	"skybench"
	"skybench/internal/point"
)

// bruteSkylineSize computes the skyline size by the O(n²) definition —
// the oracle the traced counters are checked against.
func bruteSkylineSize(data [][]float64) int {
	size := 0
	for i, p := range data {
		dominated := false
		for j, q := range data {
			if i != j && point.Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			size++
		}
	}
	return size
}

// TestQueryTraceOracle checks a traced single-context run against the
// brute-force oracle and the trace's own arithmetic: the output size is
// the true skyline size, the counters agree with Result.Stats, and the
// per-phase survivor counts telescope (input ≥ phase-1 survivors ≥
// phase-2 survivors = output).
func TestQueryTraceOracle(t *testing.T) {
	for _, dist := range []string{"independent", "anticorrelated"} {
		data := storeTestData(t, dist, 1500, 4, 7)
		want := bruteSkylineSize(data)
		ds, err := skybench.NewDataset(data)
		if err != nil {
			t.Fatal(err)
		}
		eng := skybench.NewEngine(4)
		ctx := context.Background()
		for _, alg := range []skybench.Algorithm{skybench.Hybrid, skybench.QFlow} {
			res, err := eng.Run(ctx, ds, skybench.Query{Algorithm: alg, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			tr := res.Trace
			if tr == nil {
				t.Fatalf("%s/%s: no trace on a traced run", dist, alg)
			}
			if tr.Output != want || len(res.Indices) != want {
				t.Errorf("%s/%s: trace output %d, result %d, brute force %d",
					dist, alg, tr.Output, len(res.Indices), want)
			}
			if tr.Algorithm != alg.String() {
				t.Errorf("%s/%s: trace algorithm %q", dist, alg, tr.Algorithm)
			}
			if tr.InputSize != len(data) {
				t.Errorf("%s/%s: trace input %d, want %d", dist, alg, tr.InputSize, len(data))
			}
			if tr.DominanceTests != res.Stats.DominanceTests || tr.DominanceTests == 0 {
				t.Errorf("%s/%s: trace counts %d dominance tests, stats %d",
					dist, alg, tr.DominanceTests, res.Stats.DominanceTests)
			}
			// The survivor counts must telescope down to the skyline.
			if tr.Phase2Survivors != want {
				t.Errorf("%s/%s: phase-2 survivors %d, want skyline size %d",
					dist, alg, tr.Phase2Survivors, want)
			}
			if tr.Phase1Survivors < tr.Phase2Survivors {
				t.Errorf("%s/%s: phase-1 survivors %d < phase-2 survivors %d",
					dist, alg, tr.Phase1Survivors, tr.Phase2Survivors)
			}
			if tr.PrefilterPruned < 0 || tr.PrefilterPruned > len(data)-want {
				t.Errorf("%s/%s: prefilter pruned %d of %d with %d skyline points",
					dist, alg, tr.PrefilterPruned, len(data), want)
			}
			// Q-Flow has no pre-filter and no pivot: its whole init —
			// L1 norms, sort and gather — is booked to Init.
			if alg == skybench.QFlow {
				if ph := tr.Phases; ph.Prefilter != 0 || ph.Pivot != 0 || ph.Init <= 0 || tr.PrefilterPruned != 0 {
					t.Errorf("%s/%s: init %v, prefilter %v, pivot %v, pruned %d; want init > 0 and the rest 0",
						dist, alg, ph.Init, ph.Prefilter, ph.Pivot, tr.PrefilterPruned)
				}
			}
			if tr.Elapsed <= 0 {
				t.Errorf("%s/%s: non-positive elapsed %v", dist, alg, tr.Elapsed)
			}
			if tr.CacheHit {
				t.Errorf("%s/%s: engine-level trace marked as cache hit", dist, alg)
			}
			if s := tr.String(); s == "" {
				t.Errorf("%s/%s: empty trace rendering", dist, alg)
			}
		}
		eng.Close()
	}
}

// TestQueryTraceSharded checks the trace of a collection attached with
// the deprecated Shards option: it is one engine run's — no shard
// entries, no merge path, the whole pool of a run alone — with the
// brute-force output.
func TestQueryTraceSharded(t *testing.T) {
	data := storeTestData(t, "anticorrelated", 3000, 3, 11)
	want := bruteSkylineSize(data)
	ds, err := skybench.NewDataset(data)
	if err != nil {
		t.Fatal(err)
	}
	st := skybench.NewStore(4)
	defer st.Close()
	col, err := st.Attach("sharded", ds, skybench.CollectionOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := col.Run(context.Background(), skybench.Query{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("no trace on a traced run")
	}
	if tr.Output != want || res.Len() != want {
		t.Errorf("output %d (result %d), brute force %d", tr.Output, res.Len(), want)
	}
	if len(tr.Shards) != 0 || len(tr.Workers) != 0 {
		t.Errorf("trace has %d shard and %d worker entries, want one run", len(tr.Shards), len(tr.Workers))
	}
	if tr.Threads != 4 || tr.DominanceTests != res.Stats.DominanceTests {
		t.Errorf("trace reports %d threads and %d tests, want 4 and %d", tr.Threads, tr.DominanceTests, res.Stats.DominanceTests)
	}
	if eff := tr.ParEff(); eff <= 0 || eff > 1 {
		t.Errorf("par_eff = %v, want in (0, 1]", eff)
	}
}

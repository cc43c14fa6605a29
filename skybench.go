// Package skybench is a Go reproduction of SkyBench, the multicore
// skyline computation suite of Chester, Šidlauskas, Assent and Bøgh
// ("Scalable Parallelization of Skyline Computation for Multi-core
// Processors", ICDE 2015).
//
// The skyline of a dataset is the subset of points not dominated by any
// other point: p dominates q when p is no worse than q on every
// dimension and strictly better on at least one (smaller values are
// preferred; negate attributes to maximize).
//
// The package provides the paper's two contributions — the Q-Flow
// block-parallel flow of control and the full Hybrid algorithm with its
// two-level partition index over a shared global skyline — together with
// every baseline of the paper's evaluation (PSkyline, BSkyTree,
// PBSkyTree).
//
// Quick start — prepare a Dataset once, query it many times (the
// compiled form is ExampleEngine_Run; ExampleStore shows the Store):
//
//	ds, _ := skybench.NewDataset(data)
//	eng := skybench.NewEngine(0)
//	defer eng.Close()
//	res, err := eng.Run(ctx, ds, skybench.Query{
//		Prefs: []skybench.Pref{skybench.Min, skybench.Max, skybench.Ignore},
//	})
//	for _, i := range res.Indices { ... } // skyline rows of data
//
// Engine is safe for concurrent use, honors context cancellation and
// deadlines, and supports per-dimension preferences (maximize, ignore)
// without caller-side column rewrites.
//
// Services hosting several datasets front the engine with a Store: named
// Collections (immutable Datasets, live stream indexes via AttachStream,
// or worker clusters via AttachRemote, which fan out and merge exactly),
// epoch-keyed result caching, admission control and default deadlines:
//
//	st := skybench.NewStore(0)
//	defer st.Close()
//	hotels, _ := st.Attach("hotels", ds, skybench.CollectionOptions{})
//	res, err := hotels.Run(ctx, skybench.Query{SkybandK: 2})
//
// All API errors wrap the typed sentinels in errors.go (ErrBadQuery,
// ErrCanceled, ErrUnknownCollection, …) for errors.Is dispatch.
package skybench

import (
	"fmt"
	"sort"
	"time"

	"skybench/internal/pivot"
	"skybench/internal/stats"
)

// Algorithm selects which skyline algorithm a Query runs.
type Algorithm int

const (
	// Hybrid is the paper's full algorithm (Section VI): Q-Flow plus
	// point-based partitioning and the M(S) skyline index. The default
	// and the best performer on all non-trivial workloads.
	Hybrid Algorithm = iota
	// QFlow is the simplified block-parallel algorithm (Section V).
	QFlow
	// PSkyline is the divide-and-conquer multicore baseline (Im & Park).
	PSkyline
	// BSkyTree is the state-of-the-art sequential algorithm (Lee &
	// Hwang); it runs on one thread whatever Threads asks for.
	BSkyTree
	// PBSkyTree is the paper's parallelization of BSkyTree (Appendix A).
	PBSkyTree
	// Auto leaves the choice to the collection, which runs the paper's
	// recommendation: Hybrid at its defaults (tuning the query sets
	// stays) — measured to be within noise of the best fixed choice on
	// every shape (DESIGN.md §14). QueryResult.Plan records it. Auto is only valid on
	// Store collections; a plain Engine.Run rejects it with ErrBadQuery.
	// It is deliberately absent from Algorithms: it is a spelling, not an
	// extra comparison point.
	Auto
)

var algoNames = map[Algorithm]string{
	Hybrid: "hybrid", QFlow: "qflow", PSkyline: "pskyline",
	BSkyTree: "bskytree", PBSkyTree: "pbskytree", Auto: "auto",
}

// String returns the algorithm's CLI name.
func (a Algorithm) String() string {
	if s, ok := algoNames[a]; ok {
		return s
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// ParseAlgorithm converts a CLI name into an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, name := range algoNames {
		if name == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("%w: %q (known: %v)", ErrUnknownAlgorithm, s, algorithmNames())
}

// algorithmNames returns the name of every algorithm ParseAlgorithm
// accepts, sorted, for its error message.
func algorithmNames() []string {
	names := make([]string, 0, len(algoNames))
	for _, name := range algoNames {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Algorithms lists every available algorithm, parallel ones first.
var Algorithms = []Algorithm{
	Hybrid, QFlow, PSkyline, PBSkyTree, BSkyTree,
}

// PivotStrategy selects how Hybrid picks its level-1 partitioning pivot
// (Section VII-C2 of the paper).
type PivotStrategy int

const (
	// PivotMedian uses the per-dimension median — the paper's default
	// and consistently best choice.
	PivotMedian PivotStrategy = iota
	// PivotBalanced uses BSkyTree's minimum-range skyline point.
	PivotBalanced
	// PivotManhattan uses the minimum-L1 point.
	PivotManhattan
	// PivotVolume uses the point with maximal dominated volume.
	PivotVolume
	// PivotRandom uses a refined random skyline point.
	PivotRandom
)

func (p PivotStrategy) internal() pivot.Strategy {
	switch p {
	case PivotBalanced:
		return pivot.Balanced
	case PivotManhattan:
		return pivot.Manhattan
	case PivotVolume:
		return pivot.Volume
	case PivotRandom:
		return pivot.Random
	default:
		return pivot.Median
	}
}

// String returns the strategy's CLI name.
func (p PivotStrategy) String() string { return p.internal().String() }

// pivotNames lists every pivot strategy (in declaration order).
var pivotNames = []PivotStrategy{
	PivotMedian, PivotBalanced, PivotManhattan, PivotVolume, PivotRandom,
}

// ParsePivot converts a CLI name into a PivotStrategy — the round-trip
// inverse of PivotStrategy.String.
func ParsePivot(s string) (PivotStrategy, error) {
	for _, p := range pivotNames {
		if p.String() == s {
			return p, nil
		}
	}
	names := make([]string, len(pivotNames))
	for i, p := range pivotNames {
		names[i] = p.String()
	}
	return 0, fmt.Errorf("%w: unknown pivot strategy %q (known: %v)", ErrBadQuery, s, names)
}

// Ablation switches off individual components of the Hybrid algorithm so
// their contribution can be measured (the ablation benchmarks in
// DESIGN.md). Every combination still computes the exact skyline.
type Ablation struct {
	// NoPrefilter disables the β-queue pre-filter of Section VI-A1.
	NoPrefilter bool
	// NoMS disables the M(S) two-level index; Phase I degrades to a
	// linear scan with level-1 mask filtering.
	NoMS bool
	// NoLevel2 keeps M(S) but disables level-2 re-partitioning.
	NoLevel2 bool
	// NoPhase2Split disables Phase II's three-loop decomposition;
	// every preceding block peer gets a full dominance test.
	NoPhase2Split bool
	// NoCodes runs the paper's Hybrid: every code word is 0, so the
	// code-word pre-test passes every row and M(S) skips no partition
	// on its minimum code. Its dominance tests are the ones the paper
	// counts; the default arm skips some of them (DESIGN.md §4).
	NoCodes bool
}

// PhaseTimings breaks a run's wall-clock time into the phases reported
// in the paper's Figures 7 and 8. The JSON shape (integer nanoseconds
// per phase) is the one QueryTrace puts on the wire.
//
// Hybrid reads its input once, inside the pre-filter: the preference
// transform and the L1 norms are part of Prefilter, and Init is the sort
// alone, the gathers that put each α-block's rows in sort order
// included (under Ablation.NoPrefilter the norms are taken in the
// gather, part of Pivot). Q-Flow has no pre-filter; its Init is the gather
// (transform + L1) and the sort.
type PhaseTimings struct {
	Init      time.Duration `json:"init_ns"`      // sorting (Q-Flow: gather with transform + L1, then sorting)
	Prefilter time.Duration `json:"prefilter_ns"` // preference transform + L1 + β-queue pre-filter, one sweep (Hybrid)
	Pivot     time.Duration `json:"pivot_ns"`     // survivor gather + pivot selection + partitioning (Hybrid)
	PhaseOne  time.Duration `json:"phase1_ns"`    // comparisons against the global skyline
	PhaseTwo  time.Duration `json:"phase2_ns"`    // peer comparisons / merge
	Compress  time.Duration `json:"compress_ns"`  // α-block compression
	Other     time.Duration `json:"other_ns"`     // structure updates and bookkeeping
}

// Stats reports measurements of one query run.
type Stats struct {
	// DominanceTests counts the point-vs-point dominance tests the
	// paper's arm would make. At d ≤ 8 the code-word pre-test rejects
	// most of them before the float compare, so it is a machine-
	// independent count of work, not a price of the run.
	DominanceTests uint64
	// SkylineSize is the number of skyline points found.
	SkylineSize int
	// InputSize is the number of input points.
	InputSize int
	// Threads is the effective worker count: the largest team the run
	// held from the Engine's pool. Every run leases its share (BSkyTree
	// one thread); Hybrid and Q-Flow also rebalance toward it at every
	// α-block boundary.
	Threads int
	// PrefilterPruned is the number of input points discarded by the
	// β-queue prefilter before the main algorithm ran (Hybrid only).
	PrefilterPruned int
	// phase1Survivors and phase2Survivors are the points surviving
	// Phase I and Phase II over all α-blocks (Hybrid and QFlow only),
	// carried to QueryTrace.
	phase1Survivors, phase2Survivors int
	// SortTime is the wall-clock time of the sort step (a subset of
	// Timings.Init — for Hybrid, all of it).
	SortTime time.Duration
	// busyTime is the time the worker team spent inside Phase I and
	// Phase II, summed over workers (Hybrid and QFlow only), carried to
	// QueryTrace.Busy.
	busyTime time.Duration
	// Timings is the per-phase wall-clock breakdown (parallel
	// algorithms only; sequential baselines report zero).
	Timings PhaseTimings
	// Elapsed is the total wall-clock time of the computation. For
	// Hybrid and QFlow that includes applying Query.Prefs, which happens
	// as rows are loaded inside the algorithm; the baselines stage their
	// preferences before the clock starts.
	Elapsed time.Duration
}

// Result is the outcome of a skyline computation.
type Result struct {
	// Indices are the positions of the skyline points in the input, in
	// the algorithm's natural output order.
	//
	// Aliasing rule (stated here once; every entry point refers to it):
	// Indices is caller-owned — valid forever — unless the query set
	// Query.ReuseIndices. Then it aliases Engine-internal storage and is
	// valid only until the Engine serves its next query, from any
	// goroutine; the zero-copy path is therefore only for callers that
	// serialize their queries. Clone detaches a result from that
	// storage.
	Indices []int
	// Counts holds the exact dominator count of each returned point,
	// parallel to Indices, for k-skyband queries (Query.SkybandK ≥ 2):
	// Counts[i] is the number of input points that strictly dominate
	// Indices[i] under the query's preferences, always < SkybandK.
	// Skyline queries leave Counts nil — every skyline point trivially
	// has zero dominators. Counts follows the same aliasing rule as
	// Indices.
	Counts []int32
	// Stats holds measurements of the run.
	Stats Stats
	// Trace, when the query set Query.Trace, is the EXPLAIN ANALYZE-
	// style account of the run; nil otherwise. The trace is freshly
	// allocated per traced query and caller-owned.
	Trace *QueryTrace
}

// Clone returns a deep copy of the Result whose Indices and Counts are
// caller-owned regardless of which entry point produced them — the
// escape hatch for holding onto a zero-copy result past the producer's
// next query.
func (r Result) Clone() Result {
	r.Indices = append([]int(nil), r.Indices...)
	if r.Counts != nil {
		r.Counts = append([]int32(nil), r.Counts...)
	}
	r.Trace = r.Trace.clone()
	return r
}

// TopK returns the indices of the w result points with the fewest
// dominators — the top-k dominance cut of a skyband result, the ranking
// behind paginated "best, then next-best" serving — ordered by count,
// ties by ascending row index, so the cut is the same whichever
// algorithm produced the band. w larger than the band returns every
// member. For a skyline result (nil Counts) every point has zero
// dominators, so TopK is the w smallest indices. The returned slice is
// freshly allocated and caller-owned.
func (r Result) TopK(w int) []int {
	w = min(w, len(r.Indices))
	if w <= 0 {
		return nil
	}
	pos := make([]int, len(r.Indices))
	for i := range pos {
		pos[i] = i
	}
	sort.Slice(pos, func(a, b int) bool {
		if r.Counts != nil && r.Counts[pos[a]] != r.Counts[pos[b]] {
			return r.Counts[pos[a]] < r.Counts[pos[b]]
		}
		return r.Indices[pos[a]] < r.Indices[pos[b]]
	})
	out := make([]int, w)
	for i, p := range pos[:w] {
		out[i] = r.Indices[p]
	}
	return out
}

// assembleResult converts internal stats into the public Result shape.
func assembleResult(idx []int, st *stats.Stats, n int, elapsed time.Duration) Result {
	st.InputSize = n
	st.SkylineSize = len(idx)
	return Result{
		Indices: idx,
		Stats: Stats{
			DominanceTests:  st.DominanceTests,
			SkylineSize:     len(idx),
			InputSize:       n,
			Threads:         st.Threads,
			PrefilterPruned: st.Cost.PrefilterPruned,
			phase1Survivors: st.Cost.Phase1Survivors,
			phase2Survivors: st.Cost.Phase2Survivors,
			SortTime:        st.Cost.Sort,
			busyTime:        st.Cost.Busy,
			Elapsed:         elapsed,
			Timings: PhaseTimings{
				Init:      st.Phases[stats.PhaseInit],
				Prefilter: st.Phases[stats.PhasePrefilt],
				Pivot:     st.Phases[stats.PhasePivot],
				PhaseOne:  st.Phases[stats.PhaseOne],
				PhaseTwo:  st.Phases[stats.PhaseTwo],
				Compress:  st.Phases[stats.PhaseCompress],
				Other:     st.Phases[stats.PhaseOther],
			},
		},
	}
}

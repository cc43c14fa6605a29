package skybench

import (
	"fmt"
	"strings"
	"time"
)

// QueryTrace is an EXPLAIN ANALYZE-style account of one answered query:
// which algorithm ran, where its wall-clock time went, how much work
// (dominance tests, prune hits, per-phase survivors) it did, and — for
// Collection queries — whether the answer came from the epoch-keyed
// cache and how a cluster fan-out was merged.
//
// A trace is only materialized when Query.Trace is set; untraced
// queries pay nothing beyond the engine's always-on counters, so the
// zero-allocation steady state of the hot paths is preserved. All
// durations marshal as integer nanoseconds, so a trace round-trips
// exactly over the JSON wire protocol.
type QueryTrace struct {
	// Algorithm is the CLI name of the algorithm that answered the
	// query (the algorithm of the original computation, for cache hits).
	Algorithm string `json:"algorithm"`
	// SkybandK echoes the query's band width for k-skyband queries.
	SkybandK int `json:"skyband_k,omitempty"`
	// CacheHit reports that a Collection answered from its epoch-keyed
	// result cache without computing. A cache-hit trace carries the
	// identity of the answer (algorithm, epoch, sizes) but no phase
	// timings or work counters — the work happened on an earlier query.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Band reports that a stream-backed Collection read the answer from
	// the band its source maintains (BandSource) instead of computing
	// it: no engine ran, so Algorithm names what the query asked for and
	// the work counters, Threads and Phases are zero. Elapsed is the
	// reading; InputSize is the live count.
	Band bool `json:"band,omitempty"`
	// Stale reports that the answer was a stale-fallback (AllowStale)
	// served after fresh computation failed.
	Stale bool `json:"stale,omitempty"`
	// Partial marks a degraded cluster answer: one or more workers
	// failed and the collection's partial policy merged the rest, so
	// the rows placed on the failed workers are missing.
	Partial bool `json:"partial,omitempty"`
	// Epoch is the collection membership epoch the answer reflects
	// (zero for plain Engine runs).
	Epoch uint64 `json:"epoch,omitempty"`
	// InputSize and Output are the number of points entering the
	// computation and the number returned.
	InputSize int `json:"input_size"`
	Output    int `json:"output"`
	// Threads is the largest worker team the run held (a team is
	// rebalanced toward its share of the pool at every α-block
	// boundary).
	Threads int `json:"threads,omitempty"`
	// DominanceTests counts full point-vs-point dominance tests — the
	// machine-independent work metric (paper Section IV-A).
	DominanceTests uint64 `json:"dominance_tests"`
	// PrefilterPruned is the number of input points the β-queue
	// prefilter discarded before the main algorithm ran.
	PrefilterPruned int `json:"prefilter_pruned,omitempty"`
	// Phase1Survivors and Phase2Survivors are the total points
	// surviving Phase I (vs the global skyline) and Phase II (vs block
	// peers) across all α-blocks.
	Phase1Survivors int `json:"phase1_survivors,omitempty"`
	Phase2Survivors int `json:"phase2_survivors,omitempty"`
	// Sort is the time spent in the sort step (Hybrid's three-key radix
	// + per-run L1 sorts, Q-Flow's L1 radix), a subset of Phases.Init.
	Sort time.Duration `json:"sort_ns,omitempty"`
	// Busy is the time the worker team spent inside Phase I and II,
	// summed over workers; its par_eff divides it by the team time those
	// phases held.
	Busy time.Duration `json:"busy_ns,omitempty"`
	// Elapsed is the total wall-clock time of the computation (for a
	// cluster query: the whole fan-out, merge included).
	Elapsed time.Duration `json:"elapsed_ns"`
	// Phases is the per-phase wall-clock breakdown.
	Phases PhaseTimings `json:"phases"`
	// Shards is always empty.
	//
	// Deprecated: no local collection fans out any more; a cluster
	// fan-out is broken down in Workers.
	Shards []ShardTrace `json:"shards,omitempty"`
	// Workers breaks a cluster fan-out down per worker process: each
	// worker owns a contiguous row range. Only cluster-backed
	// collections set it.
	Workers []WorkerTrace `json:"workers,omitempty"`
	// Planner records what an Algorithm: Auto query ran as (the same
	// record as QueryResult.Plan). Nil for queries that named their
	// algorithm.
	Planner *PlannerTrace `json:"planner,omitempty"`
}

// PlannerTrace records what an Algorithm: Auto query ran as. Auto is a
// fixed resolution, not a choice: Hybrid at the paper's defaults (any
// tuning the query set stays; DESIGN.md §14).
type PlannerTrace struct {
	// Algorithm is the CLI name of the algorithm that ran: "hybrid".
	Algorithm string `json:"algorithm"`
	// Explore is always false: nothing is chosen by trial.
	Explore bool `json:"explore,omitempty"`
}

// ShardTrace is the per-shard slice of a sharded query's trace.
//
// Deprecated: QueryTrace.Shards is always empty.
type ShardTrace struct {
	// Shard is the shard's ordinal in the collection's partition.
	Shard int `json:"shard"`
	// InputSize and Output are the shard's point count and the size of
	// its local band.
	InputSize int `json:"input_size"`
	Output    int `json:"output"`
	// DominanceTests is the shard run's dominance-test count.
	DominanceTests uint64 `json:"dominance_tests"`
	// PrefilterPruned is the shard run's prefilter prune count.
	PrefilterPruned int `json:"prefilter_pruned,omitempty"`
	// Threads is the largest worker team the shard run held, and
	// PhaseWall the wall-clock time of its Phase I and II: Threads ×
	// PhaseWall is the shard's term of the composite par_eff.
	Threads   int           `json:"threads,omitempty"`
	PhaseWall time.Duration `json:"phase_wall_ns,omitempty"`
	// Elapsed is the shard run's wall-clock time.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// WorkerTrace is the per-worker slice of a cluster query's trace: one
// remote skyserved process answering for one contiguous row-range
// shard over the wire protocol.
type WorkerTrace struct {
	// Worker is the worker's ordinal in the coordinator's placement.
	Worker int `json:"worker"`
	// Addr is the worker's base URL.
	Addr string `json:"addr"`
	// Lo and Hi are the global row range [Lo, Hi) placed on the worker.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// InputSize and Output are the worker's point count and the size of
	// its local band (zero when the worker failed).
	InputSize int `json:"input_size"`
	Output    int `json:"output"`
	// DominanceTests is the worker run's reported dominance-test count.
	DominanceTests uint64 `json:"dominance_tests"`
	// Wire is the whole wire round trip as the coordinator saw it
	// (serialize, transport, worker compute, parse); Elapsed is the
	// worker's own reported compute time, so Wire − Elapsed bounds the
	// transport-and-queue overhead.
	Wire    time.Duration `json:"wire_ns"`
	Elapsed time.Duration `json:"elapsed_ns"`
	// Retries counts the transport retries the client spent on the call.
	Retries int `json:"retries,omitempty"`
	// Failed marks a worker that produced no mergeable answer (transport
	// failure, deadline, epoch skew); Err carries its failure message.
	Failed bool   `json:"failed,omitempty"`
	Err    string `json:"err,omitempty"`
}

// traceFromResult materializes the trace of one engine run from the
// result's always-on statistics. Called only for traced queries, so
// untraced runs never pay the allocation.
func traceFromResult(algo Algorithm, k int, res *Result) *QueryTrace {
	s := &res.Stats
	return &QueryTrace{
		Algorithm:       algo.String(),
		SkybandK:        k,
		InputSize:       s.InputSize,
		Output:          len(res.Indices),
		Threads:         s.Threads,
		DominanceTests:  s.DominanceTests,
		PrefilterPruned: s.PrefilterPruned,
		Phase1Survivors: s.phase1Survivors,
		Phase2Survivors: s.phase2Survivors,
		Sort:            s.SortTime,
		Busy:            s.busyTime,
		Elapsed:         s.Elapsed,
		Phases:          s.Timings,
	}
}

// parEff is the parallel efficiency of the dominance-test phases: Busy
// over the team time they held, Threads × (Phases.PhaseOne +
// Phases.PhaseTwo). 1 means no worker ever waited at a phase barrier; 0
// means there is nothing to divide. For a run whose team was rebalanced
// to a smaller size mid-run, Threads overstates the team time held, so
// parEff is a lower bound.
func (t *QueryTrace) parEff() float64 {
	held := time.Duration(t.Threads) * (t.Phases.PhaseOne + t.Phases.PhaseTwo)
	if t.Busy <= 0 || held <= 0 {
		return 0
	}
	return float64(t.Busy) / float64(held)
}

// String renders the trace as a compact multi-line EXPLAIN ANALYZE-style
// report (the same rendering skyctl query -trace prints).
func (t *QueryTrace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "algorithm=%s", t.Algorithm)
	if t.SkybandK > 1 {
		fmt.Fprintf(&b, " skyband_k=%d", t.SkybandK)
	}
	if t.Epoch != 0 {
		fmt.Fprintf(&b, " epoch=%d", t.Epoch)
	}
	if t.CacheHit {
		b.WriteString(" cache=hit")
	}
	if t.Band {
		b.WriteString(" band=maintained")
	}
	if t.Stale {
		b.WriteString(" stale=true")
	}
	if t.Partial {
		b.WriteString(" partial=true")
	}
	if p := t.Planner; p != nil {
		fmt.Fprintf(&b, "\nauto: ran %s", p.Algorithm)
	}
	fmt.Fprintf(&b, "\ninput=%d output=%d elapsed=%v", t.InputSize, t.Output, t.Elapsed.Round(time.Microsecond))
	if t.CacheHit || t.Band {
		return b.String() // no engine ran for this call: nothing below to report
	}
	fmt.Fprintf(&b, " threads=%d", t.Threads)
	fmt.Fprintf(&b, "\ndominance_tests=%d prefilter_pruned=%d phase1_survivors=%d phase2_survivors=%d",
		t.DominanceTests, t.PrefilterPruned, t.Phase1Survivors, t.Phase2Survivors)
	p := t.Phases
	fmt.Fprintf(&b, "\nphases: init=%v (sort=%v) prefilter=%v pivot=%v phase1=%v phase2=%v compress=%v other=%v",
		p.Init.Round(time.Microsecond), t.Sort.Round(time.Microsecond),
		p.Prefilter.Round(time.Microsecond), p.Pivot.Round(time.Microsecond),
		p.PhaseOne.Round(time.Microsecond), p.PhaseTwo.Round(time.Microsecond),
		p.Compress.Round(time.Microsecond), p.Other.Round(time.Microsecond))
	if eff := t.parEff(); eff > 0 {
		fmt.Fprintf(&b, " par_eff=%.2f", eff)
	}
	if len(t.Workers) > 0 {
		fmt.Fprintf(&b, "\nworkers=%d", len(t.Workers))
		for _, w := range t.Workers {
			fmt.Fprintf(&b, "\n  worker %d %s rows=[%d,%d): input=%d output=%d dts=%d wire=%v elapsed=%v",
				w.Worker, w.Addr, w.Lo, w.Hi, w.InputSize, w.Output, w.DominanceTests,
				w.Wire.Round(time.Microsecond), w.Elapsed.Round(time.Microsecond))
			if w.Retries > 0 {
				fmt.Fprintf(&b, " retries=%d", w.Retries)
			}
			if w.Failed {
				fmt.Fprintf(&b, " FAILED(%s)", w.Err)
			}
		}
	}
	return b.String()
}

// clone returns a deep copy of the trace (detaching the Workers slice
// and the Auto record).
func (t *QueryTrace) clone() *QueryTrace {
	if t == nil {
		return nil
	}
	c := *t
	if t.Workers != nil {
		c.Workers = append([]WorkerTrace(nil), t.Workers...)
	}
	if t.Planner != nil {
		p := *t.Planner
		c.Planner = &p
	}
	return &c
}

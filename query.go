package skybench

import (
	"fmt"

	"skybench/internal/point"
)

// Pref states how a query treats one dimension. The dominance kernels
// only ever minimize; an Engine realizes Max and Ignore by rewriting
// each row as it is loaded (negating maximized columns, dropping ignored
// ones), so callers never negate or project columns themselves and the
// kernels stay preference-free.
type Pref int8

const (
	// Min prefers smaller values on the dimension (the default).
	Min Pref = iota
	// Max prefers larger values on the dimension.
	Max
	// Ignore excludes the dimension from dominance entirely — the
	// query's skyline is the subspace skyline over the remaining
	// dimensions.
	Ignore
)

// String returns the preference's name.
func (p Pref) String() string {
	switch p {
	case Min:
		return "min"
	case Max:
		return "max"
	case Ignore:
		return "ignore"
	}
	return fmt.Sprintf("pref(%d)", int(p))
}

// op is the single Pref → transform-op mapping; everything that
// realizes preferences goes through it so the two can never diverge.
func (p Pref) op() (point.PrefOp, error) {
	switch p {
	case Min:
		return point.PrefKeep, nil
	case Max:
		return point.PrefNegate, nil
	case Ignore:
		return point.PrefDrop, nil
	}
	return 0, fmt.Errorf("invalid preference %d", int(p))
}

// Query describes one skyline computation over a Dataset. The zero
// value runs Hybrid with the paper's defaults, minimizing every
// dimension, on the Engine's thread budget.
type Query struct {
	// Algorithm selects the skyline algorithm (default Hybrid).
	Algorithm Algorithm
	// Prefs states the per-dimension preference. Empty means minimize
	// every dimension; otherwise it must have exactly Dataset.D entries
	// and at least one of them must not be Ignore. Result indices always
	// refer to the original dataset rows, whatever the preferences.
	Prefs []Pref
	// SkybandK generalizes the query from the skyline to the k-skyband:
	// the result is every point strictly dominated by fewer than
	// SkybandK others (under the query's preferences), with exact
	// per-point dominator counts in Result.Counts and Result.TopK
	// ranking the band. 0 and 1 both select the plain skyline path —
	// bit-identical results, no counts. Values ≥ 2 are served by the
	// Hybrid and QFlow algorithms only; other algorithms return an
	// error. Negative values are invalid.
	SkybandK int
	// Threads caps the worker count for this query (≤ 0 uses the
	// Engine's thread budget; values above it are clamped to it). It is
	// a cap, not a grant: while other runs are in flight the run holds
	// its share of the Engine's pool, which may be fewer threads.
	Threads int
	// Alpha overrides the α-block size of Hybrid and QFlow (≤ 0 keeps
	// the paper's defaults: 2^10 for Hybrid, 2^13 for QFlow).
	Alpha int
	// Beta overrides Hybrid's pre-filter queue size (≤ 0 keeps β = 8).
	Beta int
	// Pivot selects Hybrid's pivot strategy (default PivotMedian).
	Pivot PivotStrategy
	// Seed drives the PivotRandom strategy deterministically.
	Seed int64
	// Progressive, when non-nil and the algorithm supports it (Hybrid,
	// QFlow), receives batches of confirmed skyline indices as blocks
	// complete. It is called on the querying goroutine. The batch slice
	// aliases internal storage that a later query recycles — it is valid
	// only for the duration of the callback; copy it to retain it. A
	// static or stream Collection delivers it from its one engine run and
	// bypasses its cache; a cluster-backed one rejects it with
	// ErrBadQuery.
	Progressive func(confirmed []int)
	// Ablation disables individual Hybrid design components for
	// experimentation. Production users should leave it zero.
	Ablation Ablation
	// ReuseIndices opts into the zero-copy result path: Result.Indices
	// aliases Engine-internal storage that is recycled by a later query
	// — from ANY goroutine — instead of being freshly allocated. It is
	// only meaningful when the Engine's queries are serialized (a
	// single-caller serving loop); on an Engine shared by concurrent
	// callers a recycled context can clobber the aliased indices while
	// they are being read. See the aliasing rule on Result.Indices.
	ReuseIndices bool
	// Trace asks for an EXPLAIN ANALYZE-style account of the run in
	// Result.Trace (algorithm, per-phase wall clock, dominance tests,
	// prune hits, per-phase survivors; for Collection queries also
	// cache/epoch status, and for a cluster query the per-worker
	// breakdown and the merge path). Like
	// the delivery options below it never affects which result is
	// computed or how Collections cache it; untraced queries pay
	// nothing — the trace object is only allocated when Trace is set.
	Trace bool
	// AllowStale opts a Collection query into graceful degradation:
	// when computing fresh fails with ErrOverloaded or
	// ErrDeadlineExceeded, serve the collection's last cached result for
	// this query shape — possibly computed at an earlier membership
	// epoch — with QueryResult.Stale set, instead of the error. It never
	// affects which fresh results are computed or cached, and it has no
	// effect on Engine.Run (the Engine has no cache to degrade to).
	AllowStale bool
}

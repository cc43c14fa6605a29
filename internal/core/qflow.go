// Package core implements the paper's contribution: the full Hybrid
// multicore skyline algorithm (Algorithms 2–4, Section VI) with its
// two-level partition data structure M(S) over the shared global
// skyline, and the Q-Flow flow of control (Algorithm 1, Section V) it
// extends. There is one α-block driver: Q-Flow is Hybrid with the
// pre-filter, the point-based partitioning and level 2 switched off.
package core

import (
	"sync/atomic"

	"skybench/internal/par"
	"skybench/internal/point"
	"skybench/internal/stats"
)

// DefaultAlphaQFlow is the α-block size for Q-Flow. The paper finds
// α = 2^13 optimal across all three distributions (Section VII-C1).
const DefaultAlphaQFlow = 1 << 13

// QFlowOptions configures a Q-Flow run. Team is required; the zero value
// of every other field selects the paper's default.
type QFlowOptions struct {
	// Team is the leased worker team the run dispatches on (see
	// HybridOptions.Team).
	Team *par.Team
	// Alpha is the block size α (≤ 0 selects DefaultAlphaQFlow).
	Alpha int
	// Stats, when non-nil, receives phase timings and DT counts.
	Stats *stats.Stats
	// Progressive, when non-nil, is invoked after each α-block with the
	// original indices of the skyline points confirmed by that block —
	// the progressive reporting the global-skyline paradigm enables.
	Progressive func(confirmed []int)
	// Cancel, when non-nil, is polled at every α-block boundary and
	// before every chunk of points a phase worker claims; once it reads
	// true the run abandons its remaining work and returns an
	// unspecified partial result, which the caller must discard.
	Cancel *atomic.Bool
	// SkybandK generalizes the computation to the k-skyband: the result
	// is every point dominated by fewer than SkybandK others, with exact
	// per-point dominator counts available from Context.Counts. Values
	// ≤ 1 select the plain skyline path, which is bit-identical to a
	// zero SkybandK.
	SkybandK int
}

// QFlow computes the skyline of the rows of v — the input as the query's
// preferences see it — with the Q-Flow algorithm (Algorithm 1) and
// returns original row indices in confirmation (L1) order. The result
// aliases Context storage and is valid until the next call on c.
//
// The input is sorted by L1 norm so dominance can only point backwards,
// then processed in α-blocks: Phase I compares each block point to the
// global skyline in parallel; survivors are compressed; Phase II compares
// each survivor to the surviving peers that precede it in the block;
// after a final compression the survivors are appended to the global
// skyline, which is therefore always exact to within one block. That is
// Hybrid's α-block loop without the pre-filter, the partitioning and
// level 2, and it runs on Hybrid's driver (see run).
func (c *Context) QFlow(v point.View, opt QFlowOptions) []int {
	alpha := opt.Alpha
	if alpha <= 0 {
		alpha = DefaultAlphaQFlow
	}
	return c.run(v, HybridOptions{
		Team:        opt.Team,
		Alpha:       alpha,
		SkybandK:    opt.SkybandK,
		Stats:       opt.Stats,
		Progressive: opt.Progressive,
		Cancel:      opt.Cancel,
	}, false)
}

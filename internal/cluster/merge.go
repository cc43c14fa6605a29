package cluster

import (
	"context"
	"math/bits"
	"slices"

	"skybench"
)

// merge is everything DESIGN.md §10 says after the fan-out: one run of
// eng over the candidate union, under the preferences the workers
// compared in, is the exact global k-skyband. vals holds the candidates
// — the per-worker bands as shipped, d columns a row — and rows[i] is
// candidate i's global row. merge returns the survivors' candidate
// positions in ascending global row order, their exact global dominator
// counts (nil for k ≤ 1, where every survivor has zero), and the
// dominance tests the run spent. The engine honours ctx; its errors pass
// through.
//
// The recount is sound because per-worker bands over-approximate the
// global one and the union carries every dominator that matters:
//
//   - Skyline: a global skyline point is undominated in the whole set,
//     hence undominated within its own shard, hence in that shard's
//     skyline. The union U of per-shard skylines therefore contains the
//     global skyline, and any point that dominates a member of U is
//     itself in U's own shard skyline or dominated by something that
//     is — so skyline(U) = global skyline.
//
//   - k-skyband: a point with fewer than k global dominators has fewer
//     than k dominators within its own shard, so the union U of
//     per-shard bands contains the global band. Counting dominators of
//     a candidate c over U alone is exact: every dominator p of c has
//     dom(p) ⊆ dom(c) \ {p} (transitivity), so if c has < k global
//     dominators then each of them has < k−1 and is in the global band
//     ⊆ U; and if c has ≥ k global dominators, its k smallest-L1
//     dominators each have all their own dominators strictly earlier in
//     L1 order inside dom(c), hence < k of them — all k are band
//     members, all in U, and the recount reaches k and discards c.
//
// The engine does not lean on the numeric precondition of DESIGN.md §9
// ("p dominates q ⟹ L1(p) < L1(q)", which exact arithmetic guarantees
// and float absorption can break): it orders its rows by computed L1
// norm with ties broken on the coordinates, a linear extension of
// dominance under rounding too, and skips no row for its norm.
func merge(ctx context.Context, eng *skybench.Engine, rows []int, vals []float64, d, k int, prefs []skybench.Pref) ([]int, []int32, uint64, error) {
	ds, err := skybench.DatasetFromFlat(vals, len(rows), d)
	if err != nil {
		return nil, nil, 0, err
	}
	res, err := eng.Run(ctx, ds, skybench.Query{SkybandK: k, Prefs: prefs})
	if err != nil {
		return nil, nil, 0, err
	}
	// Ascending global row is the documented order of a merged result;
	// the engine answers in its own. Sort one word per survivor — its
	// row above its place in the engine's answer — so the sort compares
	// integers inline instead of moving two slices in step through an
	// interface. (rows × survivors stays far below 2^64: the survivors'
	// values are in memory.)
	idx, counts := res.Indices, res.Counts
	shift := bits.Len(uint(len(idx)))
	keys := make([]uint64, len(idx))
	for i, p := range idx {
		keys[i] = uint64(rows[p])<<shift | uint64(i)
	}
	slices.Sort(keys)
	pos := make([]int, len(idx))
	var sorted []int32
	if counts != nil {
		sorted = make([]int32, len(idx))
	}
	for j, key := range keys {
		i := int(key & (1<<shift - 1))
		pos[j] = idx[i]
		if counts != nil {
			sorted[j] = counts[i]
		}
	}
	return pos, sorted, res.Stats.DominanceTests, nil
}

// Package shard partitions a dataset into contiguous row ranges and
// merges per-shard skyline / k-skyband results back into the exact
// global result.
//
// The merge is sound because per-shard results over-approximate the
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
// DESIGN.md §10 states the argument in full. mergeBand does not lean on
// the numeric precondition of DESIGN.md §9 ("p dominates q ⟹
// L1(p) < L1(q)", which exact arithmetic guarantees and float
// absorption can break): it orders the candidates by computed L1 norm
// with ties broken lexicographically, a linear extension of dominance
// under rounding too, and skips no row for its norm. The recount above
// MergeKernelMax is a full engine run, which orders its rows the same way
// and skips none for its norm either.
package shard

import (
	"cmp"
	"context"
	"math/bits"
	"slices"

	"skybench/internal/point"
)

// MergeKernelMax is the union size above which Merge recounts through
// a full engine run over the candidate union instead of mergeBand's
// quadratic prefix scan — on low-correlation data the band is a large
// fraction of the input and the engine's partition index prunes the
// cross-candidate tests the flat scan cannot.
const MergeKernelMax = 1024

// Merge-path labels recorded in query traces and metrics: which of the
// two exact recounts combined the per-part bands.
const (
	// MergePathKernel is mergeBand's flat quadratic prefix recount
	// (unions of at most MergeKernelMax candidates).
	MergePathKernel = "kernel"
	// MergePathEngine is a full engine recompute over the candidate
	// union (larger unions).
	MergePathEngine = "engine"
)

// Range is one contiguous shard of dataset rows: [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Len returns the number of rows in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Split partitions [0, n) into p contiguous, non-empty, balanced
// ranges. p is clamped to [1, n]; n = 0 yields no ranges. The first
// n mod p ranges are one row longer, mirroring par.staticRange.
func Split(n, p int) []Range {
	if n <= 0 {
		return nil
	}
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	out := make([]Range, p)
	size, rem := n/p, n%p
	lo := 0
	for i := range out {
		hi := lo + size
		if i < rem {
			hi++
		}
		out[i] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
	return out
}

// Part is one partition's band as the fan-out returned it: the global
// row offset of the partition and the band's partition-local row
// indices, in any order.
type Part struct {
	Off int
	Idx []int
}

// Recount computes the exact k-skyband of n rows of d columns through
// an engine: positions into the rows, dominator counts (nil for k ≤ 1),
// and the dominance tests spent.
type Recount func(ctx context.Context, vals []float64, n, d, k int) (pos []int, counts []int32, dts uint64, err error)

// Merged is the exact global band Merge assembled, in ascending global
// row order.
type Merged struct {
	// Pos holds each survivor's position in the candidate order handed
	// to Merge, for callers gathering their own payload (rows, IDs).
	Pos []int
	// Rows holds each survivor's global row index: its part's offset
	// plus its local index.
	Rows []int
	// Counts holds each survivor's exact global dominator count; nil
	// when k ≤ 1, where every survivor has zero.
	Counts []int32
	// Path is MergePathKernel or MergePathEngine.
	Path string
}

// Merge is everything DESIGN.md §10 says after the fan-out: it combines
// the per-part bands into the exact global k-skyband. vals holds the
// candidate rows — parts in order, each part's Idx in order, d columns
// per row — in the space the parts compared in (under the query's
// preferences). Unions of at most MergeKernelMax candidates (and every
// union when recount is nil) go through the flat recount kernel, larger
// ones through recount. dts, when non-nil, is advanced by the dominance
// tests performed. A kernel merge abandoned because ctx is done returns
// ctx.Err() bare; recount's errors pass through.
func Merge(ctx context.Context, parts []Part, vals []float64, d, k int, recount Recount, dts *uint64) (Merged, error) {
	if k < 1 {
		k = 1
	}
	nc := 0
	for _, p := range parts {
		nc += len(p.Idx)
	}
	rows := make([]int, 0, nc) // global row of every candidate position
	for _, p := range parts {
		for _, li := range p.Idx {
			rows = append(rows, p.Off+li)
		}
	}
	m := Merged{Path: MergePathKernel}
	var err error
	if nc <= MergeKernelMax || recount == nil {
		m.Pos, m.Counts, err = mergeBand(ctx, vals, nc, d, k, dts)
	} else {
		var tests uint64
		m.Path = MergePathEngine
		m.Pos, m.Counts, tests, err = recount(ctx, vals, nc, d, k)
		if dts != nil {
			*dts += tests
		}
	}
	if err != nil {
		return Merged{}, err
	}
	// Ascending global row is the documented order of a merged result;
	// neither recount produces it (the kernel answers in L1 order, an
	// engine in its own). Sort one word per survivor — its row above its
	// place in the recount's answer — so the sort compares integers
	// inline instead of moving three slices in step through an
	// interface. (rows × survivors stays far below 2^64: the survivors'
	// values are in memory.)
	pos, counts := m.Pos, m.Counts
	shift := bits.Len(uint(len(pos)))
	keys := make([]uint64, len(pos))
	for i, p := range pos {
		keys[i] = uint64(rows[p])<<shift | uint64(i)
	}
	slices.Sort(keys)
	m.Pos, m.Rows = make([]int, len(pos)), make([]int, len(pos))
	if counts != nil {
		m.Counts = make([]int32, len(pos))
	}
	for j, key := range keys {
		i := int(key & (1<<shift - 1))
		m.Pos[j], m.Rows[j] = pos[i], int(key>>shift)
		if counts != nil {
			m.Counts[j] = counts[i]
		}
	}
	return m, nil
}

// mergeBand is Merge's flat recount kernel: the exact k-skyband of the
// nc candidate points (row-major flat values, d columns per row) — for
// candidates that are the union of per-shard bands, where the package
// comment's argument makes the result the exact global band with exact
// global dominator counts.
//
// It returns the positions (into the candidate ordering) of the
// surviving points, in ascending L1 order — Merge owns the final order —
// plus each survivor's dominator count when k ≥ 2 (nil when k ≤ 1, where
// every survivor has zero). When dts is non-nil it is advanced by the
// dominance tests performed.
//
// The recount is quadratic in nc, so mergeBand polls ctx between row
// batches and abandons the merge with ctx.Err() once the context is
// done — the merge is the only part of a sharded query that runs after
// the engine's own cancellation checkpoints, and a deadline that fires
// here must not go unnoticed.
func mergeBand(ctx context.Context, vals []float64, nc, d, k int, dts *uint64) ([]int, []int32, error) {
	if nc == 0 {
		return nil, nil, nil
	}
	if k < 1 {
		k = 1
	}

	// Sort candidates by computed L1 norm, ties broken by comparing the
	// coordinates lexicographically — a linear extension of dominance
	// (DESIGN.md §9), so every dominator of a probe is an earlier row.
	// Two computed norms can tie while one row dominates the other, so
	// no row is skipped for its norm: the recount passes no l1 filter.
	l1 := make([]float64, nc)
	for i := 0; i < nc; i++ {
		l1[i] = point.L1(vals[i*d : (i+1)*d])
	}
	order := make([]int, nc)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if c := cmp.Compare(l1[a], l1[b]); c != 0 {
			return c
		}
		return slices.Compare(vals[a*d:(a+1)*d], vals[b*d:(b+1)*d])
	})
	sVals := make([]float64, nc*d)
	for p, i := range order {
		copy(sVals[p*d:(p+1)*d], vals[i*d:(i+1)*d])
	}

	var tests uint64
	keep := make([]int, 0, nc)
	var counts []int32
	if k > 1 {
		counts = make([]int32, 0, nc)
	}
	// Cancellation checkpoint cadence: every 32 probe rows costs one
	// atomic-ish ctx.Err() per ~32·p dominance tests — noise next to the
	// recount itself, prompt enough for deadline control.
	const checkEvery = 32
	for p, i := range order {
		if p%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				if dts != nil {
					*dts += tests
				}
				return nil, nil, err
			}
		}
		q := sVals[p*d : (p+1)*d : (p+1)*d]
		c := point.CountDominatorsInFlatRun(sVals, d, 0, p, q, k, &tests)
		if c < k {
			keep = append(keep, i)
			if counts != nil {
				counts = append(counts, int32(c))
			}
		}
	}
	if dts != nil {
		*dts += tests
	}
	return keep, counts, nil
}

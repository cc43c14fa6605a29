// Package pivot implements the five pivot-selection strategies evaluated
// in Section VII-C2 of the paper. The pivot v partitions the data into 2^d
// regions via masks; partition quality (balance) determines how much
// region-wise incomparability the Hybrid algorithm can exploit.
//
// Correctness never depends on the pivot choice: the mask properties of
// Section VI-A2 hold for an arbitrary constant point v. Strategy only
// affects pruning power.
package pivot

import (
	"fmt"
	"math/rand"
	"slices"

	"skybench/internal/point"
)

// Strategy selects how the pivot point is computed.
type Strategy int

const (
	// Median: virtual point whose coordinates are the per-dimension
	// medians of the (pre-filtered) data. The paper's default — produces
	// partitions of roughly equal size and performs consistently best.
	Median Strategy = iota
	// Balanced: the skyline point with minimum range of normalized
	// coordinates (BSkyTree's pivot criterion, [15]).
	Balanced
	// Manhattan: the point with minimum L1 norm, necessarily a skyline
	// point ([9]).
	Manhattan
	// Volume: the point maximizing the dominated hyper-volume
	// Πᵢ (1 − p[i]) (SaLSa's criterion, [2]); necessarily a skyline point.
	Volume
	// Random: a random point refined by one-way dominance tests, as in
	// OSP [23]: whenever a scanned point dominates the candidate, the
	// candidate is replaced.
	Random
)

// String returns the lowercase flag name for the strategy.
func (s Strategy) String() string {
	switch s {
	case Median:
		return "median"
	case Balanced:
		return "balanced"
	case Manhattan:
		return "manhattan"
	case Volume:
		return "volume"
	case Random:
		return "random"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Parse converts a CLI flag value into a Strategy.
func Parse(s string) (Strategy, error) {
	switch s {
	case "median":
		return Median, nil
	case "balanced":
		return Balanced, nil
	case "manhattan":
		return Manhattan, nil
	case "volume":
		return Volume, nil
	case "random":
		return Random, nil
	}
	return 0, fmt.Errorf("pivot: unknown strategy %q", s)
}

// AllStrategies lists the strategies in the order of Figure 9.
var AllStrategies = []Strategy{Balanced, Volume, Manhattan, Random, Median}

// medianSampleCap bounds the per-dimension sample used to compute medians
// so pivot selection stays O(n) even at paper-scale inputs.
const medianSampleCap = 50000

// Select computes the pivot for matrix m using strategy s. l1 must hold
// per-row L1 norms (it is required by Manhattan and used as a tiebreak
// elsewhere); seed drives the Random strategy deterministically. The
// returned slice is freshly allocated and never aliases m.
func Select(s Strategy, m point.Matrix, l1 []float64, seed int64) []float64 {
	return SelectInto(make([]float64, m.D()), nil, s, m, l1, seed)
}

// SelectInto is Select writing the pivot into dst (length m.D()) so
// reusable contexts avoid the per-run allocation. col is optional scratch
// for the Median strategy (see MedianColumns); passing a slice with
// capacity ≥ MedianScratchLen(m.N()) makes Median allocation-free. The
// Random strategy seeds a fresh generator and is therefore not
// allocation-free.
func SelectInto(dst, col []float64, s Strategy, m point.Matrix, l1 []float64, seed int64) []float64 {
	n := m.N()
	if n == 0 {
		panic("pivot: empty input")
	}
	v := dst
	switch s {
	case Median:
		MedianColumns(m, v, col, 0, m.D())
	case Manhattan:
		copy(v, m.Row(argminL1(l1)))
	case Volume:
		copy(v, m.Row(argmaxDominatedVolume(m)))
	case Random:
		copy(v, m.Row(selectRandomSkyline(m, seed)))
	case Balanced:
		copy(v, m.Row(selectBalanced(m)))
	default:
		panic(fmt.Sprintf("pivot: invalid strategy %d", int(s)))
	}
	return v
}

func argminL1(l1 []float64) int {
	best := 0
	for i, v := range l1 {
		if v < l1[best] {
			best = i
		}
	}
	return best
}

// argmaxDominatedVolume returns the index maximizing Πᵢ (1 − p[i]). If q
// dominates p then every factor of q is ≥ the corresponding factor of p,
// so the maximizer cannot be dominated (for data in [0,1)).
func argmaxDominatedVolume(m point.Matrix) int {
	best, bestVol := 0, -1.0
	for i := 0; i < m.N(); i++ {
		vol := 1.0
		for _, x := range m.Row(i) {
			vol *= 1 - x
		}
		if vol > bestVol {
			best, bestVol = i, vol
		}
	}
	return best
}

// medianStep is the row stride of the median sample: 1 until the input
// outgrows medianSampleCap.
func medianStep(n int) int {
	if n > medianSampleCap {
		return n / medianSampleCap
	}
	return 1
}

// MedianScratchLen returns the scratch capacity one MedianColumns call
// needs for an n-point input.
func MedianScratchLen(n int) int { return n/medianStep(n) + 1 }

// MedianColumns fills v[lo:hi] with the medians of columns lo..hi−1 of m,
// sampling large inputs — the Median strategy, one range of dimensions
// at a time, so a caller with a worker team can give each worker a range
// and a scratch column of its own: the columns are independent, and the
// pivot is the same whoever computes which. col is optional scratch
// (allocated here when its capacity is below MedianScratchLen(m.N())).
// The median is found with an O(n) quickselect rather than a full sort —
// pivot selection is on the critical path of every Hybrid run.
func MedianColumns(m point.Matrix, v, col []float64, lo, hi int) {
	n := m.N()
	step := medianStep(n)
	if need := MedianScratchLen(n); cap(col) < need {
		col = make([]float64, 0, need)
	}
	d := m.D()
	flat := m.Flat()
	for j := lo; j < hi; j++ {
		col = col[:0]
		for i := j; i < n*d; i += step * d {
			col = append(col, flat[i])
		}
		v[j] = quickselect(col, len(col)/2)
	}
}

// quickselect returns the k-th smallest element of col (0-based),
// partially reordering col in place. Median-of-three pivots with an
// insertion-sort finish keep it robust on constant and sorted columns.
func quickselect(col []float64, k int) float64 {
	a, b := 0, len(col)
	for b-a > 12 {
		mid := int(uint(a+b) >> 1)
		if col[mid] < col[a] {
			col[mid], col[a] = col[a], col[mid]
		}
		if col[b-1] < col[mid] {
			col[b-1], col[mid] = col[mid], col[b-1]
			if col[mid] < col[a] {
				col[mid], col[a] = col[a], col[mid]
			}
		}
		p := col[mid]
		i, j := a, b-1
		for i <= j {
			for col[i] < p {
				i++
			}
			for col[j] > p {
				j--
			}
			if i <= j {
				col[i], col[j] = col[j], col[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			b = j + 1
		case k >= i:
			a = i
		default:
			return col[k] // k landed between the partitions: done
		}
	}
	sub := col[a:b]
	slices.Sort(sub)
	return col[k]
}

// selectRandomSkyline implements footnote 8: pick a uniform random point,
// then iterate the dataset conducting one-way dominance tests, replacing
// the candidate whenever it is dominated. The result is skyline with high
// probability (and always a real data point).
func selectRandomSkyline(m point.Matrix, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	cand := rng.Intn(m.N())
	for i := 0; i < m.N(); i++ {
		if point.Dominates(m.Row(i), m.Row(cand)) {
			cand = i
		}
	}
	return cand
}

// selectBalanced implements BSkyTree's balanced pivot: among points that
// survive one-way dominance refinement, choose the one minimizing the
// range (max − min) of min-max normalized coordinates. Balanced pivots
// yield partitions of similar size, maximizing region-wise
// incomparability.
func selectBalanced(m point.Matrix) int {
	n, d := m.N(), m.D()
	lo := make([]float64, d)
	hi := make([]float64, d)
	copy(lo, m.Row(0))
	copy(hi, m.Row(0))
	for i := 1; i < n; i++ {
		for j, x := range m.Row(i) {
			if x < lo[j] {
				lo[j] = x
			}
			if x > hi[j] {
				hi[j] = x
			}
		}
	}
	span := make([]float64, d)
	for j := range span {
		span[j] = hi[j] - lo[j]
		if span[j] == 0 {
			span[j] = 1 // constant dimension: normalized value 0 everywhere
		}
	}
	rangeOf := func(i int) float64 {
		mn, mx := 2.0, -1.0
		for j, x := range m.Row(i) {
			nv := (x - lo[j]) / span[j]
			if nv < mn {
				mn = nv
			}
			if nv > mx {
				mx = nv
			}
		}
		return mx - mn
	}
	cand := 0
	candRange := rangeOf(0)
	for i := 1; i < n; i++ {
		switch {
		case point.Dominates(m.Row(i), m.Row(cand)):
			cand, candRange = i, rangeOf(i)
		case point.Dominates(m.Row(cand), m.Row(i)):
			// i cannot be the pivot
		default:
			if r := rangeOf(i); r < candRange {
				cand, candRange = i, r
			}
		}
	}
	// Refinement pass: ensure no point dominates the final candidate.
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			if point.Dominates(m.Row(i), m.Row(cand)) {
				cand, candRange = i, rangeOf(i)
				changed = true
			}
		}
	}
	return cand
}

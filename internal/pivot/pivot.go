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
	"math"
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

// AllStrategies lists the strategies in the order of Figure 9.
var AllStrategies = []Strategy{Balanced, Volume, Manhattan, Random, Median}

// medianSampleCap bounds the per-dimension sample used to compute medians
// so pivot selection stays O(n) even at paper-scale inputs.
const medianSampleCap = 50000

// SelectInto computes the pivot for matrix m using strategy s and writes
// it into dst (length m.D()), which it returns, so reusable contexts
// avoid a per-run allocation. l1 must hold per-row L1 norms (it is
// required by Manhattan and used as a tiebreak elsewhere); seed drives
// the Random strategy deterministically. col is optional scratch
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
// No value may be NaN, which makes the median unspecified; ±Inf is
// answered exactly.
//
// Pivot selection is on the critical path of every Hybrid run, so no
// column is sorted. Each is copied into col, keeping its minimum and
// maximum on the way. A column of at least medianHistMin values is then
// counted into medianBuckets buckets (medianOf); a shorter one, or one
// whose scale is not finite and positive, takes an O(n) quickselect over
// the whole column. Either way the median is the middle element of the
// sorted copy, up to the sign of a zero, which no mask compare tells
// apart.
func MedianColumns(m point.Matrix, v, col []float64, lo, hi int) {
	n := m.N()
	step := medianStep(n)
	if need := MedianScratchLen(n); cap(col) < need {
		col = make([]float64, 0, need)
	}
	d := m.D()
	flat := m.Flat()
	var hist [medianBuckets]int32
	for j := lo; j < hi; j++ {
		col = col[:0]
		mn, mx := math.Inf(1), math.Inf(-1)
		for i := j; i < n*d; i += step * d {
			x := flat[i]
			col = append(col, x)
			// Branches, not min and max, whose handling of NaN and
			// signed zeros costs more here.
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		if len(col) < medianHistMin {
			v[j] = quickselect(col, len(col)/2)
		} else {
			v[j] = medianOf(col, mn, mx, &hist)
		}
	}
}

// medianBuckets is the number of buckets MedianColumns counts a column
// into: 8 KB of counts, and on a 50 000-value sample about 25 values a
// bucket. The counts pay from about medianHistMin values on
// (BenchmarkMedianColumns, one thread): a 2 048-value column takes 6.5
// µs through them and 4.9 µs by quickselect, a 4 096-value one 9.6–11.4
// against 9.0–10.0 µs, an 8 192-value one 22–28 against 59–60 µs and a
// 30 000-value one 92–107 against 459–475 µs.
const (
	medianBuckets = 2048
	medianHistMin = 2 * medianBuckets
)

// medianOf returns the middle element, rank len(col)/2, of col, whose
// least and greatest values are mn and mx, partially reordering col in
// place. It counts col into medianBuckets buckets by the monotone map
// (x − mn)·((medianBuckets−1)/(mx − mn)): a value in a lower bucket is
// smaller than every value in a higher one, so the middle element is
// the element of its rank within the bucket that holds rank len(col)/2,
// and a quickselect over that bucket alone finds it. Where the scale is
// not finite and positive (a constant column, ±Inf, a range that
// overflows) the quickselect runs over the whole column. hist is the
// counts' storage.
func medianOf(col []float64, mn, mx float64, hist *[medianBuckets]int32) float64 {
	k := len(col) / 2
	scale := (medianBuckets - 1) / (mx - mn)
	if !(scale > 0 && scale <= math.MaxFloat64) {
		return quickselect(col, k)
	}
	// Through int and then uint, so no value, not even the NaN the
	// precondition rules out, indexes outside the counts.
	bucket := func(x float64) uint {
		return min(uint(int((x-mn)*scale)), medianBuckets-1)
	}
	clear(hist[:])
	for _, x := range col {
		hist[bucket(x)]++
	}
	b := uint(0)
	for int(hist[b]) <= k {
		k -= int(hist[b])
		b++
	}
	in := col[:0]
	for _, x := range col {
		if bucket(x) == b {
			in = append(in, x)
		}
	}
	return quickselect(in, k)
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

package point

import (
	"math"
	"math/bits"
)

// Code words: one uint64 per row that holds every coordinate quantized
// by a monotone map fixed for a run, one lane per dimension. A row can
// dominate a probe only if it is no larger in every lane, and that test
// is three integer operations on the two words (SWAR: SIMD within a
// register), so the run kernels ask it before the float test and only
// the few rows that pass it reach the d float compares.
//
// Layout: L = d rounded up to a power of two lanes of W = 64/L bits.
// The top bit of each lane is a guard and the low c = min(W − 1, 31)
// bits hold the code: 15-bit codes for d = 3–4, 7-bit for d = 5–8,
// 3-bit for d = 9–16 and 1-bit for d = 17–31; d ≤ 2 is capped at 31
// bits so that every code is an exact float64 and the float → integer
// conversion is exact. Lanes past d hold 0 in every word.
//
// Pre-test: with H the guard bits, ((qc | H) − r) & H == H iff r ≤ qc
// in every lane. Each lane computes 2^(W−1) + q − r with q, r < 2^c ≤
// 2^(W−1), a value in [1, 2^W), so no borrow crosses a lane boundary,
// and the lane's guard bit survives iff q ≥ r.

// codeGuards[d] is H for d dimensions: the top bit of every lane.
var codeGuards = func() (g [MaxDims + 1]uint64) {
	for d := 1; d <= MaxDims; d++ {
		w := codeWidth(d)
		for lane := uint(0); lane < 64; lane += w {
			g[d] |= 1 << (lane + w - 1)
		}
	}
	return g
}()

// codeWidth returns the lane width W of d-dimensional code words.
func codeWidth(d int) uint { return 64 >> bits.Len(uint(d-1)) }

// codeLE is the pre-test: it reports that code word r is no larger than
// the probe's in any lane, given qg = qc | h and the guard bits h.
func codeLE(r, qg, h uint64) bool { return (qg-r)&h == h }

// CodeLE is the pre-test on d-dimensional code words: it reports that
// r is no larger than qc in any lane, which every row that dominates the
// probe coded qc satisfies.
func CodeLE(r, qc uint64, d int) bool {
	h := codeGuards[d]
	return codeLE(r, qc|h, h)
}

// CodeMin returns the lane-wise minimum of two d-dimensional code words.
// The pre-test's subtraction leaves the guard bit of exactly the lanes
// where a ≥ b; spread down over the lane's code bits, it selects b
// there and a elsewhere. A code word no larger than a probe's in every
// lane makes every minimum it is folded into pass the pre-test too, so
// a group of rows whose minimum fails it holds no dominator of the
// probe.
func CodeMin(a, b uint64, d int) uint64 {
	h := codeGuards[d]
	ge := ((a | h) - b) & h
	sel := ge - ge>>(codeWidth(d)-1)
	return b&sel | a&^sel
}

// codeGuardsFor returns H for d dimensions when there are codes, and 0
// when codes is nil, so that a kernel asked for no pre-test accepts any
// d, past MaxDims included.
func codeGuardsFor(codes []uint64, d int) uint64 {
	if codes == nil {
		return 0
	}
	return codeGuards[d]
}

// Quantizer is one run's monotone map from rows to code words. Per
// dimension j it holds lo_j, the smallest value of the run's rows, and
// scale_j = 2^c / (max_j − lo_j), and codes v as
//
//	clamp(⌊(v − lo_j) · scale_j⌋, 0, 2^c − 1)
//
// in floating point. The map is non-decreasing in v for every non-NaN
// v, inside the range it was fitted to or not (DESIGN.md §2), so a
// dominator's code word is no larger than its victim's in any lane: the
// pre-test never rejects a dominator.
type Quantizer struct {
	w     uint    // lane width W
	top   float64 // the largest code, 2^c − 1
	lo    [MaxDims]float64
	scale [MaxDims]float64
}

// Reset fits the quantizer to d dimensions whose values lie in
// [lo[j], hi[j]], hi[j] ≥ lo[j]. A constant column, or one whose range
// overflows to +Inf, gets scale 0 and codes every value as 0.
func (z *Quantizer) Reset(d int, lo, hi []float64) {
	z.w = codeWidth(d)
	c := min(z.w-1, 31)
	z.top = float64(uint64(1)<<c - 1)
	for j := 0; j < d; j++ {
		z.lo[j] = lo[j]
		z.scale[j] = 0
		if r := hi[j] - lo[j]; r > 0 {
			// A range below 2^c / MaxFloat64 overflows the quotient;
			// the largest finite scale keeps every product finite.
			z.scale[j] = min(float64(uint64(1)<<c)/r, math.MaxFloat64)
		}
	}
}

// Code returns row's code word. x > 0 is false for a NaN x, which
// arises only as 0 · ±Inf in a scale-0 lane, so it codes as 0 like every
// other value of that lane; every other x is clamped to [0, top] and
// truncated, exactly, because top < 2^31.
func (z *Quantizer) Code(row []float64) uint64 {
	lo, scale := z.lo[:len(row)], z.scale[:len(row)]
	var word uint64
	shift := uint(0)
	for j, v := range row {
		var c uint64
		if x := (v - lo[j]) * scale[j]; x > 0 {
			c = uint64(int64(min(x, z.top)))
		}
		word |= c << shift
		shift += z.w
	}
	return word
}

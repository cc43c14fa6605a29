package point

import (
	"math"
	"math/bits"
)

// Mask is a 2^d-region partition mask relative to a pivot point
// (Section VI-A2). Bit i is set iff the point is ≥ the pivot on dimension
// i; a clear bit means the point is strictly better than the pivot there.
// Dimensionality is limited to 31 so masks (plus the level in the compound
// sort key) fit comfortably in 32 bits on all platforms.
type Mask uint32

// MaxDims is the largest dimensionality supported by mask-based
// partitioning. The paper evaluates up to d = 16.
const MaxDims = 31

// ComputeMask assigns p to a partition relative to pivot v:
// bit i = (p[i] < v[i] ? 0 : 1). The bit is derived branchlessly —
// partition bits are close to uniform on real data, so a per-dimension
// compare-and-branch mispredicts half the time. Each operand is
// normalized with +0.0 (sending -0 to +0), mapped through the
// order-preserving bit transform, and compared via the borrow flag of an
// unsigned subtract, which matches x ≥ v exactly for every non-NaN input
// including ±Inf.
func ComputeMask(p, v []float64) Mask {
	var m uint32
	for i, x := range p {
		_, borrow := bits.Sub64(OrderBits(x+0.0), OrderBits(v[i]+0.0), 0)
		m |= uint32(1-borrow) << uint(i)
	}
	return Mask(m)
}

// OrderBits maps a float64 to a uint64 whose unsigned order matches the
// float total order (negatives reversed, sign flipped), without branches.
// It is the standard radix-sortable transform; Q-Flow's L1 sort keys use
// it too. Callers that must treat -0 and +0 as equal (as ComputeMask
// does) should normalize with +0.0 first.
func OrderBits(f float64) uint64 {
	b := math.Float64bits(f)
	sign := uint64(int64(b) >> 63) // all ones iff f is negative
	return b ^ (sign | 1<<63)
}

// Level returns |m|, the number of set bits — the "level" of the partition
// in the paper's three-key sort.
func (m Mask) Level() int { return bits.OnesCount32(uint32(m)) }

// Subset reports m ⊆ m2, i.e. every bit set in m is also set in m2.
// A point with mask m can dominate a point with mask m2 only if m ⊆ m2
// (both cheap-filter properties of Section VI-A2 reduce to this test).
func (m Mask) Subset(m2 Mask) bool { return m&m2 == m }

// FullMask returns the all-ones mask for dimensionality d (the partition
// of points weakly dominated by the pivot).
func FullMask(d int) Mask { return Mask(1<<uint(d)) - 1 }

// CompoundKey packs (level, mask) into one integer so the three-key sort
// of Section VI-A3 can compare level-then-mask with a single value:
// K = (|m| << d) | m. It needs d + ⌈lg d⌉ bits, well within 64.
func (m Mask) CompoundKey(d int) uint64 {
	return uint64(m.Level())<<uint(d) | uint64(m)
}

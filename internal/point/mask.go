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

// ComputeMask assigns p to a partition relative to pivot v: bit i is
// set iff p[i] ≥ v[i]. Each bit is one float compare turned into a flag
// (UCOMISD + SETCC), with no branch: partition bits are close to uniform
// on real data, so a per-dimension compare-and-branch mispredicts half
// the time. IEEE comparison already treats −0 and +0 as equal and orders
// ±Inf. The inputs must be finite, as every caller's are (datasets and
// stream rows are checked on the way in): a NaN on either side gives
// bit 0.
func ComputeMask(p, v []float64) Mask {
	v = v[:len(p)]
	var m uint32
	for i, x := range p {
		m |= uint32(b2u(x >= v[i])) << (uint(i) & 31)
	}
	return Mask(m)
}

// OrderBits maps a float64 to a uint64 whose unsigned order matches the
// float total order (negatives reversed, sign flipped), without branches.
// It is the standard radix-sortable transform; Q-Flow's L1 sort keys use
// it too. Callers that must treat -0 and +0 as equal should normalize
// with +0.0 first.
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

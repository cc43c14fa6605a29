package point

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestOrderBitsMonotone checks the order-preserving float transform on
// representative values including negatives and zeros.
func TestOrderBitsMonotone(t *testing.T) {
	vals := []float64{-1e300, -5, -1, -0.25, 0, 0.25, 1, 5, 1e300}
	for i := 1; i < len(vals); i++ {
		if OrderBits(vals[i-1]) >= OrderBits(vals[i]) {
			t.Fatalf("OrderBits not monotone between %g and %g", vals[i-1], vals[i])
		}
	}
}

func TestComputeMask(t *testing.T) {
	v := []float64{5, 5}
	cases := []struct {
		p    []float64
		want Mask
	}{
		{[]float64{1, 1}, 0b00},
		{[]float64{9, 1}, 0b01},
		{[]float64{1, 9}, 0b10},
		{[]float64{9, 9}, 0b11},
		{[]float64{5, 5}, 0b11}, // equality counts as "not better"
	}
	for _, c := range cases {
		if got := ComputeMask(c.p, v); got != c.want {
			t.Errorf("ComputeMask(%v) = %04b, want %04b", c.p, got, c.want)
		}
	}
}

func TestLevelAndSubset(t *testing.T) {
	if Mask(0b1011).Level() != 3 {
		t.Error("Level(0b1011) != 3")
	}
	if !Mask(0b001).Subset(0b011) {
		t.Error("0b001 should be subset of 0b011")
	}
	if Mask(0b100).Subset(0b011) {
		t.Error("0b100 should not be subset of 0b011")
	}
	if !Mask(0).Subset(0) {
		t.Error("0 ⊆ 0")
	}
}

func TestFullMask(t *testing.T) {
	if FullMask(4) != 0b1111 {
		t.Errorf("FullMask(4) = %b", FullMask(4))
	}
	if FullMask(1) != 0b1 {
		t.Errorf("FullMask(1) = %b", FullMask(1))
	}
}

func TestCompoundKeyRoundTrip(t *testing.T) {
	for d := 1; d <= 16; d++ {
		for trial := 0; trial < 100; trial++ {
			m := Mask(rand.Uint32()) & FullMask(d)
			k := m.CompoundKey(d)
			if got := Mask(k) & FullMask(d); got != m {
				t.Fatalf("d=%d mask=%b: low d bits of key %d = %b", d, m, k, got)
			}
			if got := int(k >> uint(d)); got != m.Level() {
				t.Fatalf("d=%d mask=%b: key >> d = %d, want level %d", d, m, got, m.Level())
			}
		}
	}
}

// Property (Section VI-A2, both cheap-filter rules): if q dominates p then
// mask(q) ⊆ mask(p) relative to any pivot. The compound-key sort therefore
// orders dominators before dominatees.
func TestDominatorMaskIsSubset(t *testing.T) {
	f := func(a, b, piv [4]uint8) bool {
		q, p, v := make([]float64, 4), make([]float64, 4), make([]float64, 4)
		for i := 0; i < 4; i++ {
			q[i], p[i], v[i] = float64(a[i]%6), float64(b[i]%6), float64(piv[i]%6)
		}
		if Dominates(q, p) {
			mq, mp := ComputeMask(q, v), ComputeMask(p, v)
			if !mq.Subset(mp) {
				return false
			}
			if mq.CompoundKey(4) > mp.CompoundKey(4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: equal-level distinct masks are incomparable regions — no point
// in one can dominate a point in the other (first property of VI-A2).
func TestEqualLevelDistinctMasksIncomparable(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	v := []float64{3, 3, 3, 3}
	for trial := 0; trial < 20000; trial++ {
		p, q := make([]float64, 4), make([]float64, 4)
		for i := range p {
			p[i] = float64(rng.Intn(6))
			q[i] = float64(rng.Intn(6))
		}
		mp, mq := ComputeMask(p, v), ComputeMask(q, v)
		if mp.Level() == mq.Level() && mp != mq {
			if Dominates(p, q) || Dominates(q, p) {
				t.Fatalf("masks %b/%b same level but %v and %v comparable", mp, mq, p, q)
			}
		}
	}
}

// TestComputeMaskBranchless pins the flag-set implementation to the
// reference predicate (bit i ⇔ p[i] ≥ v[i]): on every pair of a palette
// of finite and infinite values — signed zeros, which IEEE compares
// equal, the smallest subnormals, ±MaxFloat64 and exact ties — and on
// random finite rows at every width from 1 to MaxDims, bit by bit.
func TestComputeMaskBranchless(t *testing.T) {
	vals := []float64{math.Inf(-1), -math.MaxFloat64, -1e300, -2, -1, -5e-324, math.Copysign(0, -1), 0,
		5e-324, 1e-300, 1, 2, 1e300, math.MaxFloat64, math.Inf(1)}
	for _, x := range vals {
		for _, v := range vals {
			got := ComputeMask([]float64{x}, []float64{v})
			want := Mask(0)
			if x >= v {
				want = 1
			}
			if got != want {
				t.Errorf("ComputeMask(%g vs %g) = %b, want %b", x, v, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(53))
	val := func() float64 {
		if rng.Intn(4) == 0 {
			return vals[1+rng.Intn(len(vals)-2)] // a finite palette value
		}
		return rng.NormFloat64()
	}
	for d := 1; d <= MaxDims; d++ {
		p, v := make([]float64, d), make([]float64, d)
		for trial := 0; trial < 200; trial++ {
			for i := range p {
				p[i], v[i] = val(), val()
				if rng.Intn(8) == 0 {
					p[i] = v[i] // a tie
				}
			}
			got := ComputeMask(p, v)
			for i := range p {
				if bit := got>>i&1 == 1; bit != (p[i] >= v[i]) {
					t.Fatalf("d=%d bit %d: ComputeMask(%v vs %v) = %b, want bit %d ⇔ %g ≥ %g",
						d, i, p, v, got, i, p[i], v[i])
				}
			}
			if got&^FullMask(d) != 0 {
				t.Fatalf("d=%d: ComputeMask = %b sets bits past d", d, got)
			}
		}
	}
}

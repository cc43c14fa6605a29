package point

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDominatesBasics(t *testing.T) {
	cases := []struct {
		p, q []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false}, // coincident
		{[]float64{1, 1}, []float64{1, 2}, true},  // equal on one dim
		{[]float64{2, 2}, []float64{1, 1}, false},
		{[]float64{0, 5, 3}, []float64{1, 5, 3}, true},
	}
	for _, c := range cases {
		if got := Dominates(c.p, c.q); got != c.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestEquals(t *testing.T) {
	if !Equals([]float64{1, 2}, []float64{1, 2}) {
		t.Error("identical points should be Equal")
	}
	if Equals([]float64{1, 2}, []float64{1, 3}) {
		t.Error("distinct points should not be Equal")
	}
}

func TestCompareMatchesDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		d := 1 + rng.Intn(8)
		p, q := make([]float64, d), make([]float64, d)
		for j := 0; j < d; j++ {
			// Small integer grid ensures frequent ties and coincidence.
			p[j] = float64(rng.Intn(4))
			q[j] = float64(rng.Intn(4))
		}
		rel := Compare(p, q)
		pd, qd, eq := Dominates(p, q), Dominates(q, p), Equals(p, q)
		switch rel {
		case LeftDominates:
			if !pd || qd || eq {
				t.Fatalf("Compare(%v,%v)=Left but Dominates says %v/%v/%v", p, q, pd, qd, eq)
			}
		case RightDominates:
			if pd || !qd || eq {
				t.Fatalf("Compare(%v,%v)=Right but Dominates says %v/%v/%v", p, q, pd, qd, eq)
			}
		case Equal:
			if !eq {
				t.Fatalf("Compare(%v,%v)=Equal but Equals=false", p, q)
			}
		case Incomparable:
			if pd || qd || eq {
				t.Fatalf("Compare(%v,%v)=Incomparable but %v/%v/%v", p, q, pd, qd, eq)
			}
		}
	}
}

// Property: dominance is irreflexive, antisymmetric, and transitive.
func TestDominancePartialOrderProperties(t *testing.T) {
	type triple struct{ A, B, C [5]uint8 }
	f := func(tr triple) bool {
		conv := func(a [5]uint8) []float64 {
			out := make([]float64, 5)
			for i, v := range a {
				out[i] = float64(v % 4)
			}
			return out
		}
		p, q, r := conv(tr.A), conv(tr.B), conv(tr.C)
		// Irreflexive.
		if Dominates(p, p) {
			return false
		}
		// Antisymmetric.
		if Dominates(p, q) && Dominates(q, p) {
			return false
		}
		// Transitive.
		if Dominates(p, q) && Dominates(q, r) && !Dominates(p, r) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Property: p ≺ q implies L1(p) < L1(q) — the basis of the sort-based
// cheap filter (footnote 2 of the paper), strict here because sums of
// small integers are exact.
func TestDominanceImpliesSmallerL1(t *testing.T) {
	f := func(a, b [6]uint8) bool {
		p, q := make([]float64, 6), make([]float64, 6)
		for i := 0; i < 6; i++ {
			p[i], q[i] = float64(a[i]%8), float64(b[i]%8)
		}
		if Dominates(p, q) && L1(p) >= L1(q) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

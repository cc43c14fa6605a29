package point

import (
	"math/rand"
	"testing"
)

// randPair produces a (p, q) pair embedded at random row offsets of two
// flat matrices, exercising the interesting relations: random pairs,
// forced weak-dominance pairs, and coincident pairs.
func randPair(rng *rand.Rand, d int) (p, q []float64) {
	p = make([]float64, d)
	q = make([]float64, d)
	for i := range p {
		p[i] = float64(rng.Intn(5)) / 4 // coarse grid → frequent ties
		q[i] = float64(rng.Intn(5)) / 4
	}
	switch rng.Intn(4) {
	case 0: // force p ⪯ q
		for i := range p {
			if p[i] > q[i] {
				p[i] = q[i]
			}
		}
	case 1: // force coincidence
		copy(q, p)
	}
	return p, q
}

// flatten embeds row into a larger flat array at row index ri so offset
// arithmetic (not slice identity) is what's being tested.
func flatten(rng *rand.Rand, row []float64, ri, rows int) []float64 {
	d := len(row)
	vals := make([]float64, rows*d)
	for i := range vals {
		vals[i] = rng.Float64() * 10
	}
	copy(vals[ri*d:], row)
	return vals
}

func TestFlatKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for d := 2; d <= 16; d++ {
		for trial := 0; trial < 500; trial++ {
			p, q := randPair(rng, d)
			pi, qi := rng.Intn(4), rng.Intn(4)
			pv := flatten(rng, p, pi, 4)
			qv := flatten(rng, q, qi, 4)

			if got, want := DominatesFlat2(pv, pi*d, qv, qi*d, d), Dominates(p, q); got != want {
				t.Fatalf("d=%d DominatesFlat2=%v want %v (p=%v q=%v)", d, got, want, p, q)
			}
			if got, want := EqualsFlat2(pv, pi*d, qv, qi*d, d), Equals(p, q); got != want {
				t.Fatalf("d=%d EqualsFlat2=%v want %v", d, got, want)
			}

			// Same-array variants.
			both := make([]float64, 2*d)
			copy(both, p)
			copy(both[d:], q)
			if got, want := DominatesFlat(both, 0, d, d), Dominates(p, q); got != want {
				t.Fatalf("d=%d DominatesFlat=%v want %v", d, got, want)
			}
		}
	}
}

// TestFirstDominatorInFlatRun cross-checks the index-returning dominator
// scan (generic and specialized) against a per-row brute force, with and
// without the L1 pruning filter.
func TestFirstDominatorInFlatRun(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{2, 3, 4, 5, 6, 7, 8, 9, 12} {
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(24)
			rows := make([]float64, n*d)
			l1 := make([]float64, n)
			for j := 0; j < n; j++ {
				for k := 0; k < d; k++ {
					v := float64(rng.Intn(5)) / 4 // coarse grid → frequent ties
					rows[j*d+k] = v
					l1[j] += v
				}
			}
			q := make([]float64, d)
			qL1 := 0.0
			for k := range q {
				q[k] = float64(rng.Intn(5)) / 4
				qL1 += q[k]
			}

			want := -1
			for j := 0; j < n; j++ {
				if Dominates(rows[j*d:(j+1)*d], q) {
					want = j
					break
				}
			}
			var dts uint64
			if got := FirstDominatorInFlatRun(rows, d, 0, n, q, qL1, nil, &dts); got != want {
				t.Fatalf("d=%d no-filter: got %d want %d (q=%v)", d, got, want, q)
			}
			if got := FirstDominatorInFlatRun(rows, d, 0, n, q, qL1, l1, &dts); got != want {
				t.Fatalf("d=%d l1-filter: got %d want %d (q=%v rows=%v)", d, got, want, q, rows)
			}
			// Sub-range scan: restricting [lo, hi) must find the first
			// dominator inside the range only.
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			want = -1
			for j := lo; j < hi; j++ {
				if Dominates(rows[j*d:(j+1)*d], q) {
					want = j
					break
				}
			}
			if got := FirstDominatorInFlatRun(rows, d, lo, hi, q, qL1, l1, &dts); got != want {
				t.Fatalf("d=%d range [%d,%d): got %d want %d", d, lo, hi, got, want)
			}
		}
	}
	if FirstDominatorInFlatRun(nil, 8, 0, 0, make([]float64, 8), 0, nil, new(uint64)) != -1 {
		t.Fatalf("empty run must report no dominator")
	}
}

package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"skybench/internal/point"
	"skybench/internal/stats"
	"skybench/internal/verify"
)

// gridDims are randomGridMatrix's dimensionalities: 1–6, and one width
// of each code-word lane layout the small ones miss — 3-bit codes
// (d = 9, 16) and 1-bit codes (d = 17, 31).
var gridDims = []int{1, 2, 3, 4, 5, 6, 9, 16, 17, 31}

// randomGridMatrix builds a small matrix over a coarse integer grid so
// that ties, duplicates, and dense dominance chains all occur.
func randomGridMatrix(rng *rand.Rand) point.Matrix {
	n := 1 + rng.Intn(120)
	d := gridDims[rng.Intn(len(gridDims))]
	m := point.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			m.Row(i)[j] = float64(rng.Intn(5))
		}
	}
	return m
}

// Property: Hybrid computes exactly SKY(P) for arbitrary small inputs,
// arbitrary α, and arbitrary thread counts.
func TestHybridPropertyOracle(t *testing.T) {
	teams := leaseSizes(t, 5)
	f := func(seed int64, alphaRaw uint8, threadsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomGridMatrix(rng)
		alpha := 1 + int(alphaRaw)%97
		threads := 1 + int(threadsRaw)%5
		got := Hybrid(m, HybridOptions{Team: teams[threads], Alpha: alpha})
		return verify.IsSkyline(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: Q-Flow computes exactly SKY(P) under the same fuzzing.
func TestQFlowPropertyOracle(t *testing.T) {
	teams := leaseSizes(t, 5)
	f := func(seed int64, alphaRaw uint8, threadsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomGridMatrix(rng)
		alpha := 1 + int(alphaRaw)%97
		threads := 1 + int(threadsRaw)%5
		got := QFlow(m, QFlowOptions{Team: teams[threads], Alpha: alpha})
		return verify.IsSkyline(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: the three-key sort order used by Hybrid is topological with
// respect to dominance — if q ≺ p then q's (compound key, L1) pair
// strictly precedes p's. This is the invariant that makes confirming a
// block's survivors sound.
func TestSortOrderTopologicalProperty(t *testing.T) {
	f := func(a, b, piv [5]uint8) bool {
		d := 5
		p, q, v := make([]float64, d), make([]float64, d), make([]float64, d)
		for i := 0; i < d; i++ {
			p[i], q[i], v[i] = float64(a[i]%6), float64(b[i]%6), float64(piv[i]%6)
		}
		if !point.Dominates(q, p) {
			return true
		}
		kq := point.ComputeMask(q, v).CompoundKey(d)
		kp := point.ComputeMask(p, v).CompoundKey(d)
		if kq > kp {
			return false
		}
		if kq == kp && point.L1(q) >= point.L1(p) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Hybrid's dominance-test count never exceeds the quadratic
// worst case n(n−1), for any configuration (DTs are only ever skipped,
// never repeated, relative to the naive nested loop... modulo the
// bounded α-block overlap, which stays within the same bound for n > 1).
func TestHybridDTUpperBoundProperty(t *testing.T) {
	tm := lease(t, 2)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomGridMatrix(rng)
		var st stats.Stats
		Hybrid(m, HybridOptions{Team: tm, Alpha: 16, Stats: &st})
		n := uint64(m.N())
		if n <= 1 {
			return st.DominanceTests == 0
		}
		return st.DominanceTests <= 2*n*n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

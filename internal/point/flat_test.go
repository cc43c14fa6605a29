package point

import (
	"math/rand"
	"slices"
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

			if got, want := dominatesRow(pv[pi*d:(pi+1)*d], qv[qi*d:(qi+1)*d]), Dominates(p, q); got != want {
				t.Fatalf("d=%d dominatesRow=%v want %v (p=%v q=%v)", d, got, want, p, q)
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

// maskColumn packs the partition masks of n rows against pivot (every
// mask 0 for a nil pivot) beside their L1 norms, as the stream index
// keeps its band, and returns the probe's mask and norm with them.
func maskColumn(rows []float64, d, n int, q, pivot []float64) (pm *PackedMasks, l1 []float64, qm Mask, qL1 float64) {
	pm = packMasks(d, nil)
	l1 = make([]float64, n)
	for j := 0; j < n; j++ {
		r := rows[j*d : (j+1)*d]
		l1[j] = L1(r)
		if pivot != nil {
			pm.Append(ComputeMask(r, pivot))
		} else {
			pm.Append(0)
		}
	}
	if pivot != nil {
		qm = ComputeMask(q, pivot)
	}
	return pm, l1, qm, L1(q)
}

// bruteDominators is the unfiltered reference scan: the first budget
// rows of [lo, hi) that dominate q, and the rows it tested to find them.
func bruteDominators(rows []float64, d, lo, hi int, q []float64, budget int) (pos []int32, tested uint64) {
	for j := lo; j < hi && len(pos) < budget; j++ {
		tested++
		if Dominates(rows[j*d:(j+1)*d], q) {
			pos = append(pos, int32(j))
		}
	}
	return pos, tested
}

// prefixCodes codes every row and q with a quantizer fitted to the
// first m rows only, so that later rows and the probe may fall outside
// the fitted range and clamp, as the stream's band rows do between
// refits.
func prefixCodes(rows []float64, d, m int, q []float64) ([]uint64, uint64) {
	z := fitQuantizer(rows[:m*d], d, q)
	codes := make([]uint64, len(rows)/d)
	for j := range codes {
		codes[j] = z.Code(rows[j*d : (j+1)*d])
	}
	return codes, z.Code(q)
}

// TestAppendDominatorsMasked holds the stream's probe kernel to the
// unfiltered scan on a coarse grid (frequent ties, equal norms and
// coincident rows): the same positions in the same order over any
// [lo, hi), at budget 1 (the first dominator) and above, against an
// arbitrary pivot or none, with no more dominance tests; with no filter
// to pass over a row, exactly as many. Behind code words fitted to a
// prefix of the rows it returns the same positions after the same
// tests. Entries already in dst stay and do not count against the
// budget.
func TestAppendDominatorsMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12} {
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(24)
			rows, q := randRun(rng, n, d)
			if trial%5 == 0 {
				copy(q, rows[rng.Intn(n)*d:][:d])
			}
			var pivot []float64
			if trial%4 != 0 {
				_, pivot = randRun(rng, 0, d)
			}
			pm, l1, qm, qL1 := maskColumn(rows, d, n, q, pivot)
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			if trial%3 == 0 {
				lo, hi = 0, n
			}
			for _, budget := range []int{1, 1 + rng.Intn(4)} {
				want, tested := bruteDominators(rows, d, lo, hi, q, budget)
				var dts uint64
				got := AppendDominatorsMasked([]int32{-1}, rows, d, lo, hi, q, qL1, l1, pm, qm, nil, 0, budget, &dts)
				if !slices.Equal(got, append([]int32{-1}, want...)) || dts > tested {
					t.Fatalf("d=%d [%d,%d) budget=%d pivot=%v: got %v after %d tests, want %v after %d (q=%v rows=%v)",
						d, lo, hi, budget, pivot, got[1:], dts, want, tested, q, rows)
				}
				codes, qc := prefixCodes(rows, d, rng.Intn(n+1), q)
				var codedDTs uint64
				if coded := AppendDominatorsMasked(nil, rows, d, lo, hi, q, qL1, l1, pm, qm, codes, qc, budget, &codedDTs); !slices.Equal(coded, got[1:]) || codedDTs != dts {
					t.Fatalf("d=%d [%d,%d) budget=%d pivot=%v: coded %v after %d tests, uncoded %v after %d", d, lo, hi, budget, pivot, coded, codedDTs, got[1:], dts)
				}
				if pivot == nil {
					// No mask filter, and every norm passes: the kernel is the
					// plain scan, test for test.
					dts = 0
					got = AppendDominatorsMasked(nil, rows, d, lo, hi, q, 0, make([]float64, n), pm, 0, nil, 0, budget, &dts)
					if !slices.Equal(got, want) || dts != tested {
						t.Fatalf("d=%d [%d,%d) budget=%d unfiltered: got %v after %d tests, want %v after %d", d, lo, hi, budget, got, dts, want, tested)
					}
				}
			}
		}
	}
	if got := AppendDominatorsMasked(nil, nil, 8, 0, 0, make([]float64, 8), 0, nil, packMasks(8, nil), 0, nil, 0, 1, new(uint64)); len(got) != 0 {
		t.Fatalf("empty run reported dominators %v", got)
	}
}

// firstDominator is the first-dominator scan the stream's insert probe
// makes: the collecting kernel at budget 1, -1 when [lo, hi) holds no
// dominator.
func firstDominator(rows []float64, d, lo, hi int, q []float64, qL1 float64, l1 []float64, pm *PackedMasks, qm Mask, dts *uint64) int {
	if got := AppendDominatorsMasked(nil, rows, d, lo, hi, q, qL1, l1, pm, qm, nil, 0, 1, dts); len(got) > 0 {
		return int(got[0])
	}
	return -1
}

// TestFirstDominatorInFlatRun cross-checks the first-dominator scan
// against a per-row brute force: with no filter, with the L1 pre-check
// alone, and with the L1 pre-check and the mask filter of an arbitrary
// pivot.
func TestFirstDominatorInFlatRun(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{2, 3, 4, 5, 6, 7, 8, 9, 12} {
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(24)
			rows := make([]float64, n*d)
			for i := range rows {
				rows[i] = float64(rng.Intn(5)) / 4 // coarse grid → frequent ties
			}
			q := make([]float64, d)
			for k := range q {
				q[k] = float64(rng.Intn(5)) / 4
			}
			pm, l1, qm, qL1 := maskColumn(rows, d, n, q, nil)
			_, pivot := randRun(rng, 0, d)
			pmP, _, qmP, _ := maskColumn(rows, d, n, q, pivot)

			want := -1
			for j := 0; j < n; j++ {
				if Dominates(rows[j*d:(j+1)*d], q) {
					want = j
					break
				}
			}
			var dts uint64
			if got := firstDominator(rows, d, 0, n, q, 0, make([]float64, n), pm, 0, &dts); got != want {
				t.Fatalf("d=%d no-filter: got %d want %d (q=%v)", d, got, want, q)
			}
			if got := firstDominator(rows, d, 0, n, q, qL1, l1, pm, qm, &dts); got != want {
				t.Fatalf("d=%d l1-filter: got %d want %d (q=%v rows=%v)", d, got, want, q, rows)
			}
			if got := firstDominator(rows, d, 0, n, q, qL1, l1, pmP, qmP, &dts); got != want {
				t.Fatalf("d=%d mask-filter pivot=%v: got %d want %d (q=%v rows=%v)", d, pivot, got, want, q, rows)
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
			if got := firstDominator(rows, d, lo, hi, q, qL1, l1, pmP, qmP, &dts); got != want {
				t.Fatalf("d=%d range [%d,%d): got %d want %d", d, lo, hi, got, want)
			}
		}
	}
	if firstDominator(nil, 8, 0, 0, make([]float64, 8), 0, nil, packMasks(8, nil), 0, new(uint64)) != -1 {
		t.Fatalf("empty run must report no dominator")
	}
}

// TestAppendDominatedMasked holds the stream's demotion kernel to the
// unfiltered scan for every row the probe dominates, on the same grid,
// coded as uncoded.
func TestAppendDominatedMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, d := range []int{1, 2, 3, 4, 6, 8, 9, 12} {
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(24)
			rows, q := randRun(rng, n, d)
			var pivot []float64
			if trial%4 != 0 {
				_, pivot = randRun(rng, 0, d)
			}
			pm, l1, qm, qL1 := maskColumn(rows, d, n, q, pivot)
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			var want []int32
			for j := lo; j < hi; j++ {
				if Dominates(q, rows[j*d:(j+1)*d]) {
					want = append(want, int32(j))
				}
			}
			var dts uint64
			got := AppendDominatedMasked(nil, rows, d, lo, hi, q, qL1, l1, pm, qm, nil, 0, &dts)
			if !slices.Equal(got, want) || dts > uint64(hi-lo) {
				t.Fatalf("d=%d [%d,%d) pivot=%v: got %v after %d tests, want %v (q=%v rows=%v)", d, lo, hi, pivot, got, dts, want, q, rows)
			}
			codes, qc := prefixCodes(rows, d, rng.Intn(n+1), q)
			var codedDTs uint64
			if coded := AppendDominatedMasked(nil, rows, d, lo, hi, q, qL1, l1, pm, qm, codes, qc, &codedDTs); !slices.Equal(coded, got) || codedDTs != dts {
				t.Fatalf("d=%d [%d,%d) pivot=%v: coded %v after %d tests, uncoded %v after %d", d, lo, hi, pivot, coded, codedDTs, got, dts)
			}
		}
	}
}

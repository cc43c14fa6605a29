package point

import (
	"math/rand"
	"slices"
	"testing"
)

// countOracle is the scalar reference for every counting kernel: the
// number of rows in [lo, hi) that strictly dominate q, subject to the
// same optional flag filter, capped at budget.
func countOracle(rows []float64, d, lo, hi int, q []float64, skip []uint32, budget int) int {
	c := 0
	for j := lo; j < hi; j++ {
		if skip != nil && skip[j] != 0 {
			continue
		}
		if Dominates(rows[j*d:(j+1)*d], q) {
			c++
			if c >= budget {
				return c
			}
		}
	}
	return c
}

// countRun is the run kernel the caller would reach: the uncoded entry
// when there are no filters and no code words, the coded one otherwise.
func countRun(rows []float64, d, lo, hi int, q []float64, skip []uint32, codes []uint64, qc uint64, budget int, dts *uint64) int {
	if skip == nil && codes == nil {
		return CountDominatorsInFlatRun(rows, d, lo, hi, q, budget, dts)
	}
	return CountDominatorsInFlatRunCoded(rows, d, lo, hi, q, skip, codes, qc, budget, dts)
}

// cntBody is the signature of the coded run kernel's loop bodies.
type cntBody func(rows []float64, d, lo, hi int, q []float64, skip []uint32, codes []uint64, qc uint64, budget int, dts *uint64) int

// splitScan is one scan of [lo, hi) by body, split at row mid ∈ [lo, hi]
// with the flags in late set between the two calls, as a concurrent phase
// worker sets a flag while the scan is at mid. It returns the count and
// the dominance tests the scan booked.
func splitScan(body cntBody, rows []float64, d, lo, mid, hi int, q []float64, skip, late []uint32, codes []uint64, qc uint64, budget int) (int, uint64) {
	flags := slices.Clone(skip)
	var dts uint64
	c := body(rows, d, lo, mid, q, flags, codes, qc, budget, &dts)
	for j := range late {
		flags[j] |= late[j]
	}
	if c < budget {
		c += body(rows, d, mid, hi, q, flags, codes, qc, budget-c, &dts)
	}
	return c, dts
}

// budgetRow is the row on which a split scan by body reaches its budget —
// the last row of the shortest window [lo, h) whose scan does — or -1
// when the scan of [lo, hi) never does.
func budgetRow(body cntBody, rows []float64, d, lo, mid, hi int, q []float64, skip, late []uint32, codes []uint64, qc uint64, budget int) int {
	for h := lo + 1; h <= hi; h++ {
		if c, _ := splitScan(body, rows, d, lo, min(mid, h), h, q, skip, late, codes, qc, budget); c >= budget {
			return h - 1
		}
	}
	return -1
}

// checkFilteredBody holds cntRunFiltered, the body the coded kernel runs
// when both filters are present, to cntRunGeneric on one split scan: the
// count, the row the budget is reached on and the dominance tests must
// all agree.
func checkFilteredBody(t *testing.T, rows []float64, d, lo, mid, hi int, q []float64, skip, late []uint32, codes []uint64, qc uint64, budget int) {
	t.Helper()
	gc, gd := splitScan(cntRunGeneric, rows, d, lo, mid, hi, q, skip, late, codes, qc, budget)
	fc, fd := splitScan(cntRunFiltered, rows, d, lo, mid, hi, q, skip, late, codes, qc, budget)
	gr := budgetRow(cntRunGeneric, rows, d, lo, mid, hi, q, skip, late, codes, qc, budget)
	fr := budgetRow(cntRunFiltered, rows, d, lo, mid, hi, q, skip, late, codes, qc, budget)
	if gc != fc || gd != fd || gr != fr {
		t.Fatalf("d=%d [%d,%d|%d) budget=%d: filtered body (count %d, budget row %d, %d tests), generic (%d, %d, %d); q=%v rows=%v skip=%v late=%v",
			d, lo, mid, hi, budget, fc, fr, fd, gc, gr, gd, q, rows, skip, late)
	}
}

// checkUncodedBodies holds CountDominatorsInFlatRunShortCircuit to
// CountDominatorsInFlatRun on one scan at every budget from 1 to
// maxBudget: the same count and the same advance of a *dts that does not
// start at zero.
func checkUncodedBodies(t *testing.T, rows []float64, d, lo, hi int, q []float64, maxBudget int) {
	t.Helper()
	for budget := 1; budget <= maxBudget; budget++ {
		bfDTs, scDTs := uint64(3), uint64(3)
		bf := CountDominatorsInFlatRun(rows, d, lo, hi, q, budget, &bfDTs)
		sc := CountDominatorsInFlatRunShortCircuit(rows, d, lo, hi, q, budget, &scDTs)
		if bf != sc || bfDTs != scDTs {
			t.Fatalf("d=%d [%d,%d) budget=%d: short-circuit body (count %d, %d tests), branch-free (%d, %d); q=%v rows=%v",
				d, lo, hi, budget, sc, scDTs-3, bf, bfDTs-3, q, rows)
		}
	}
}

// randRun builds a small flat matrix on a coarse grid (frequent ties and
// dominance) plus a probe drawn the same way.
func randRun(rng *rand.Rand, n, d int) (rows []float64, q []float64) {
	rows = make([]float64, n*d)
	for i := range rows {
		rows[i] = float64(rng.Intn(4)) / 3
	}
	q = make([]float64, d)
	for i := range q {
		q[i] = float64(rng.Intn(4)) / 3
	}
	return rows, q
}

func TestCountDominatorsInFlatRun(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12} {
		for trial := 0; trial < 400; trial++ {
			n := 1 + rng.Intn(24)
			rows, q := randRun(rng, n, d)
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			budget := 1 + rng.Intn(5)

			var skip []uint32
			if rng.Intn(2) == 0 {
				skip = make([]uint32, n)
				for j := range skip {
					skip[j] = uint32(rng.Intn(2))
				}
			}

			var codes []uint64
			var qc uint64
			if rng.Intn(2) == 0 {
				codes, qc = codeColumn(rows, d, q)
			}

			var dts uint64
			got := countRun(rows, d, lo, hi, q, skip, codes, qc, budget, &dts)
			want := countOracle(rows, d, lo, hi, q, skip, budget)
			if got != want {
				t.Fatalf("d=%d n=%d [%d,%d) budget=%d coded=%v: got %d want %d", d, n, lo, hi, budget, codes != nil, got, want)
			}
			if want < budget && dts == 0 && want > 0 {
				t.Fatalf("dominators found without dominance tests")
			}
			checkUncodedBodies(t, rows, d, lo, hi, q, 5)
		}
	}
}

// TestCountDominatorsInFlatRunFilters holds the run kernel to a
// reference scan — count and dominance-test advance — for every
// d ∈ [2,16] (the unrolled widths and the generic body on both sides of
// them), at budget 1, the skyline's "is the probe dominated", and at
// budget 3, over [lo, hi) windows, with and without the skip-flag
// filter and the code-word pre-test, on probes that sometimes coincide
// with a row. With both present it also holds the filter-complete body
// to the generic one, with flags set mid-scan.
func TestCountDominatorsInFlatRunFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for d := 2; d <= 16; d++ {
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(20)
			rows := make([]float64, n*d)
			skip := make([]uint32, n)
			for j := 0; j < n; j++ {
				for k := 0; k < d; k++ {
					rows[j*d+k] = float64(rng.Intn(4)) / 4
				}
				if rng.Intn(3) == 0 {
					skip[j] = 1
				}
			}
			q := make([]float64, d)
			for k := range q {
				q[k] = float64(rng.Intn(5)) / 4
			}
			if trial%5 == 0 { // sometimes copy a row so coincidence occurs
				copy(q, rows[rng.Intn(n)*d:][:d])
			}
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo+1)
			codes, qc := codeColumn(rows, d, q)

			for variant := 0; variant < 4; variant++ {
				var useSkip []uint32
				var useCodes []uint64
				if variant&1 != 0 {
					useSkip = skip
				}
				if variant&2 != 0 {
					useCodes = codes
				}
				for _, budget := range []int{1, 3} {
					want, wantDTs := 0, uint64(0)
					for j := lo; j < hi && want < budget; j++ {
						if useSkip != nil && useSkip[j] != 0 {
							continue
						}
						wantDTs++
						if Dominates(rows[j*d:(j+1)*d], q) {
							want++
						}
					}
					var dts uint64
					got := countRun(rows, d, lo, hi, q, useSkip, useCodes, qc, budget, &dts)
					if got != want || dts != wantDTs {
						t.Fatalf("d=%d variant=%d budget=%d run=[%d,%d): got (%d,%d) want (%d,%d)",
							d, variant, budget, lo, hi, got, dts, want, wantDTs)
					}
				}
			}
			// Both filters present, with more flags set mid-scan.
			late := make([]uint32, n)
			for j := range late {
				late[j] = uint32(rng.Intn(4) / 3)
			}
			mid := lo + rng.Intn(hi-lo+1)
			for _, budget := range []int{1, 2, 3} {
				checkFilteredBody(t, rows, d, lo, mid, hi, q, skip, late, codes, qc, budget)
			}
		}
	}
}

func TestCountDominatorsInFlatRunMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, d := range []int{2, 3, 4, 6, 8} {
		pivot := make([]float64, d)
		for i := range pivot {
			pivot[i] = 0.5
		}
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(24)
			rows, q := randRun(rng, n, d)
			masks := make([]Mask, n)
			for j := 0; j < n; j++ {
				masks[j] = ComputeMask(rows[j*d:(j+1)*d], pivot)
			}
			qm := ComputeMask(q, pivot)
			pm := packMasks(d, masks)
			budget := 1 + rng.Intn(4)
			codes, qc := codeColumn(rows, d, q)

			var dts uint64
			got := CountDominatorsInFlatRunMasked(rows, d, 0, n, q, pm, qm, codes, qc, budget, &dts)

			// Oracle: mask filter, then dominance, capped.
			want := 0
			for j := 0; j < n && want < budget; j++ {
				if !masks[j].Subset(qm) {
					continue
				}
				if Dominates(rows[j*d:(j+1)*d], q) {
					want++
				}
			}
			if got != want {
				t.Fatalf("d=%d n=%d budget=%d: got %d want %d", d, n, budget, got, want)
			}

			// The mask filter must never drop a dominator: unfiltered count
			// with an unbounded budget matches the brute-force total.
			var dts2 uint64
			unf := CountDominatorsInFlatRunMasked(rows, d, 0, n, q, pm, qm, nil, 0, n+1, &dts2)
			brute := countOracle(rows, d, 0, n, q, nil, n+1)
			if unf != brute {
				t.Fatalf("d=%d mask filter dropped dominators: %d vs %d", d, unf, brute)
			}
		}
	}
}

// TestAppendDominatorsInFlatRun holds the collecting kernel at budgets
// 1-4 to the brute force: the first budget dominators in ascending row
// order, unchanged by the mask filter of an arbitrary pivot, and at
// budget 1 the head of any larger budget's answer.
func TestAppendDominatorsInFlatRun(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, d := range []int{1, 2, 4, 6, 8} {
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(24)
			rows, q := randRun(rng, n, d)
			_, pivot := randRun(rng, 0, d)
			budget := 1 + rng.Intn(4)

			var want []int32
			for j := 0; j < n && len(want) < budget; j++ {
				if Dominates(rows[j*d:(j+1)*d], q) {
					want = append(want, int32(j))
				}
			}
			for _, pv := range [][]float64{nil, pivot} {
				pm, l1, qm, qL1 := maskColumn(rows, d, n, q, pv)
				var dts uint64
				got := AppendDominatorsMasked(nil, rows, d, 0, n, q, qL1, l1, pm, qm, nil, 0, budget, &dts)
				if !slices.Equal(got, want) {
					t.Fatalf("d=%d budget=%d pivot=%v: got %v want %v", d, budget, pv, got, want)
				}
				one := AppendDominatorsMasked(nil, rows, d, 0, n, q, qL1, l1, pm, qm, nil, 0, 1, &dts)
				if !slices.Equal(one, want[:min(1, len(want))]) {
					t.Fatalf("d=%d pivot=%v: budget 1 gave %v, budget %d gave %v", d, pv, one, budget, got)
				}
			}
		}
	}
}

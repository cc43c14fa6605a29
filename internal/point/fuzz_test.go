package point

import (
	"math"
	"slices"
	"testing"
)

// Native fuzz targets for the dominance kernels. Each target decodes an
// arbitrary byte string into a small flat matrix plus probe (coarse
// value grid so ties and dominance are frequent, with occasional ±Inf
// and extreme magnitudes) and cross-checks the optimized kernel — at
// every width, unrolled or generic, coded or not — against a scalar
// brute-force oracle written from the dominance definition alone.
// Budget 1 of FuzzCountDominatorsInFlatRun is the skyline's "is the
// probe dominated" contract, and budget 1 of FuzzAppendDominatorsMasked
// the stream's "by whom". CI runs each target briefly with -fuzz as a smoke step;
// longer local campaigns just need
// `go test -fuzz=FuzzCount ./internal/point`.

// fuzzVal maps one byte onto the value grid.
func fuzzVal(b byte) float64 {
	switch b & 0x0f {
	case 12:
		return math.Inf(1)
	case 13:
		return math.Inf(-1)
	case 14:
		return 1e300
	case 15:
		return -1e300
	default:
		return float64(b&0x0f) / 8
	}
}

// fuzzMatrix decodes bytes into (rows, q, d): dimensionality from the
// first byte, probe next, then as many full rows as the data affords.
func fuzzMatrix(data []byte) (rows []float64, q []float64, d int) {
	if len(data) < 2 {
		return nil, nil, 0
	}
	d = int(data[0]%16) + 1 // 1..16 covers generic + every unrolled width
	data = data[1:]
	if len(data) < d {
		return nil, nil, 0
	}
	q = make([]float64, d)
	for i := 0; i < d; i++ {
		q[i] = fuzzVal(data[i])
	}
	data = data[d:]
	n := len(data) / d
	if n > 64 {
		n = 64
	}
	rows = make([]float64, n*d)
	for i := range rows[:n*d] {
		rows[i] = fuzzVal(data[i])
	}
	return rows, q, d
}

// dominatesOracle restates Definition 2 with no shared helpers.
func dominatesOracle(p, q []float64) bool {
	strict := false
	for i := range p {
		if p[i] > q[i] {
			return false
		}
		if p[i] < q[i] {
			strict = true
		}
	}
	return strict
}

func FuzzDominatesFlat(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, q, d := fuzzMatrix(data)
		if d == 0 {
			return
		}
		n := len(rows) / d
		for j := 0; j < n; j++ {
			r := rows[j*d : (j+1)*d]
			if got, want := dominatesRow(r, q), dominatesOracle(r, q); got != want {
				t.Fatalf("d=%d row %d: dominatesRow=%v oracle=%v (r=%v q=%v)", d, j, got, want, r, q)
			}
		}
	})
}

// FuzzAppendDominatorsMasked holds the stream's two band kernels to the
// unmasked brute-force scans: the first budget dominators of the probe
// in the same positions and order, and every row the probe dominates,
// each with no more dominance tests than the scan. The pivot is read
// from the input's last d bytes — the mask filter must be exact for any
// constant point, infinite coordinates included. Both kernels run again
// behind code words from a quantizer fitted to a prefix of the rows the
// first byte picks, so that later rows and the probe may fall outside
// its range and clamp, as the stream's do between refits; they must
// return the same positions after the same tests.
func FuzzAppendDominatorsMasked(f *testing.F) {
	f.Add([]byte{0, 4, 9, 9, 9, 9, 1, 1, 1, 1, 2, 2, 2, 2})
	f.Add([]byte{2, 8, 3, 3, 3, 3, 3, 3, 3, 3, 4, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{8, 3, 4, 4, 4, 2, 2, 2, 6, 6, 6, 0, 9, 1, 14, 15, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		budget := int(data[0]%8) + 1
		rows, q, d := fuzzMatrix(data[1:])
		if d == 0 {
			return
		}
		n := len(rows) / d
		pivot := make([]float64, d)
		for i := range pivot {
			pivot[i] = fuzzVal(data[len(data)-1-i])
		}
		pm := packMasks(d, nil)
		l1 := make([]float64, n)
		for j := range l1 {
			r := rows[j*d : (j+1)*d]
			l1[j] = L1(r)
			pm.Append(ComputeMask(r, pivot))
		}
		qL1, qm := L1(q), ComputeMask(q, pivot)
		codes, qc := prefixCodes(rows, d, int(data[0]>>3)%(n+1), q)

		var want []int32
		var tested uint64
		for j := 0; j < n && len(want) < budget; j++ {
			tested++
			if dominatesOracle(rows[j*d:(j+1)*d], q) {
				want = append(want, int32(j))
			}
		}
		var dts, codedDTs uint64
		if got := AppendDominatorsMasked(nil, rows, d, 0, n, q, qL1, l1, pm, qm, nil, 0, budget, &dts); !slices.Equal(got, want) || dts > tested {
			t.Fatalf("d=%d n=%d budget=%d: dominators %v after %d tests, oracle %v after %d (q=%v pivot=%v rows=%v)",
				d, n, budget, got, dts, want, tested, q, pivot, rows)
		}
		if got := AppendDominatorsMasked(nil, rows, d, 0, n, q, qL1, l1, pm, qm, codes, qc, budget, &codedDTs); !slices.Equal(got, want) || codedDTs != dts {
			t.Fatalf("d=%d n=%d budget=%d: coded dominators %v after %d tests, uncoded %v after %d (q=%v rows=%v)",
				d, n, budget, got, codedDTs, want, dts, q, rows)
		}

		var under []int32
		for j := 0; j < n; j++ {
			if dominatesOracle(q, rows[j*d:(j+1)*d]) {
				under = append(under, int32(j))
			}
		}
		dts, codedDTs = 0, 0
		if got := AppendDominatedMasked(nil, rows, d, 0, n, q, qL1, l1, pm, qm, nil, 0, &dts); !slices.Equal(got, under) || dts > uint64(n) {
			t.Fatalf("d=%d n=%d: dominated %v after %d tests, oracle %v (q=%v pivot=%v rows=%v)", d, n, got, dts, under, q, pivot, rows)
		}
		if got := AppendDominatedMasked(nil, rows, d, 0, n, q, qL1, l1, pm, qm, codes, qc, &codedDTs); !slices.Equal(got, under) || codedDTs != dts {
			t.Fatalf("d=%d n=%d: coded dominated %v after %d tests, uncoded %v after %d (q=%v rows=%v)", d, n, got, codedDTs, under, dts, q, rows)
		}
	})
}

// FuzzCountDominatorsInFlatRun holds the uncoded run kernel to the
// oracle at budgets 1–8 and its two bodies, branch-free and
// short-circuit, to each other at every one of those budgets; and the
// coded kernel's filter-complete body (flags and code words, Phase II's
// partition run) to its generic body: the same count, budget row and
// dominance tests, with flags set before and during the scan.
func FuzzCountDominatorsInFlatRun(f *testing.F) {
	f.Add([]byte{2, 4, 9, 9, 1, 1, 2, 2, 0, 3})
	f.Add([]byte{6, 3, 3, 3, 3, 3, 3, 3, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{0x1a, 2, 4, 9, 9, 0x11, 1, 2, 0x22, 0, 3, 0x31, 1, 1})
	f.Add([]byte{0, 0, 3, 3})    // d = 1, a row whose norm ties the probe's
	f.Add([]byte{0, 0, 1, 4, 0}) // d = 1, a row the code pre-test rejects, then a dominator
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		budget := int(data[0]%8) + 1
		rows, q, d := fuzzMatrix(data[1:])
		if d == 0 {
			return
		}
		n := len(rows) / d

		want := 0
		for j := 0; j < n && want < budget; j++ {
			if dominatesOracle(rows[j*d:(j+1)*d], q) {
				want++
			}
		}
		var dts uint64
		if got := CountDominatorsInFlatRun(rows, d, 0, n, q, budget, &dts); got != want {
			t.Fatalf("d=%d n=%d budget=%d: count=%d oracle=%d (q=%v rows=%v)", d, n, budget, got, want, q, rows)
		}
		checkUncodedBodies(t, rows, d, 0, n, q, 8)

		// The filter-complete body against the generic one. fuzzVal reads
		// a byte's low nibble, so each row's first byte has bits to spare:
		// bit 4 flags the row, bit 5 flags it mid-scan, at a row drawn
		// from the budget byte's high bits.
		rowBytes := data[2+d:]
		skip, late := make([]uint32, n), make([]uint32, n)
		for j := 0; j < n; j++ {
			skip[j] = uint32(rowBytes[j*d] >> 4 & 1)
			late[j] = uint32(rowBytes[j*d] >> 5 & 1)
		}
		codes, qc := codeColumn(rows, d, q)
		mid := int(data[0]>>3) % (n + 1)
		checkFilteredBody(t, rows, d, 0, mid, n, q, skip, late, codes, qc, budget)
	})
}

// codeVals is FuzzCodeWord's value palette: the values where a float
// quantizer could lose monotonicity — signed zeros, subnormals,
// magnitudes that absorb one another's low bits, the extremes of the
// finite range, infinities — beside an ordinary grid.
var codeVals = [16]float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
	0x1p-1022, 0.9, 1, 0.5,
	1e16, 1e16 + 2, 1e300, math.MaxFloat64,
	0.25, 0.75, math.Inf(1), 0.125,
}

// fuzzCodeVal maps one byte onto the palette: the low four bits pick a
// value, bit 4 moves it one ulp up and bit 5 negates it.
func fuzzCodeVal(b byte) float64 {
	v := codeVals[b&15]
	if b&0x10 != 0 {
		v = math.Nextafter(v, math.Inf(1))
	}
	if b&0x20 != 0 {
		v = -v
	}
	return v
}

// FuzzCodeWord holds the code-word pre-test to its two promises on
// arbitrary rows at every d from 1 to 31. First, the quantizer fitted to
// the rows is lane-wise monotone for every pair of rows and the probe:
// a ≤ b in a coordinate gives a code no larger in that lane, so a
// dominator always passes the pre-test. Second, the coded counting
// kernels, unmasked and masked (pivot from the input's last d bytes), at
// budgets 1–8, return the count and the dominance tests of the same
// scans without codes. Third, CodeMin folded over the code column is its
// minimum lane by lane, and it passes the pre-test whenever some row
// does: a group whose minimum fails it holds no dominator.
func FuzzCodeWord(f *testing.F) {
	f.Add([]byte{7, 0, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 0x15, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 3, 8, 9, 9, 8, 1, 0x21, 2, 0x22, 11, 0x2b, 14, 0x2e})
	f.Add([]byte{30, 1, 6, 12, 13, 0x10, 0x20, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		in := data
		d := int(data[0])%MaxDims + 1
		budget := int(data[1]%8) + 1
		data = data[2:]
		if len(data) < d {
			return
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = fuzzCodeVal(data[j])
		}
		data = data[d:]
		n := min(len(data)/d, 64)
		rows := make([]float64, n*d)
		for i := range rows {
			rows[i] = fuzzCodeVal(data[i])
		}
		codes, qc := codeColumn(rows, d, q)

		all := append(slices.Clone(rows), q...)
		words := append(slices.Clone(codes), qc)
		for a := 0; a <= n; a++ {
			for b := 0; b <= n; b++ {
				for j := 0; j < d; j++ {
					if all[a*d+j] <= all[b*d+j] && lane(words[a], d, j) > lane(words[b], d, j) {
						t.Fatalf("d=%d: %g ≤ %g codes as %d > %d", d, all[a*d+j], all[b*d+j], lane(words[a], d, j), lane(words[b], d, j))
					}
				}
			}
		}

		if n > 0 {
			lo := codes[0]
			for _, c := range codes[1:] {
				lo = CodeMin(lo, c, d)
			}
			for j := 0; j < d; j++ {
				want := lane(codes[0], d, j)
				for _, c := range codes[1:] {
					want = min(want, lane(c, d, j))
				}
				if got := lane(lo, d, j); got != want {
					t.Fatalf("d=%d lane %d: CodeMin fold %d, lane minimum %d (codes=%x)", d, j, got, want, codes)
				}
			}
			if lo&codeGuards[d] != 0 {
				t.Fatalf("d=%d: CodeMin fold %x sets a guard bit", d, lo)
			}
			anyPass := false
			for _, c := range codes {
				anyPass = anyPass || CodeLE(c, qc, d)
			}
			if anyPass && !CodeLE(lo, qc, d) {
				t.Fatalf("d=%d: a row passes the pre-test against %x, the column minimum %x does not", d, qc, lo)
			}
		}

		oracle := 0
		for j := 0; j < n && oracle < budget; j++ {
			if dominatesOracle(rows[j*d:(j+1)*d], q) {
				oracle++
			}
		}
		var plainDTs, codedDTs uint64
		want := CountDominatorsInFlatRun(rows, d, 0, n, q, budget, &plainDTs)
		if want != oracle {
			t.Fatalf("d=%d n=%d budget=%d: uncoded run %d, oracle %d", d, n, budget, want, oracle)
		}
		if got := CountDominatorsInFlatRunCoded(rows, d, 0, n, q, nil, codes, qc, budget, &codedDTs); got != want || codedDTs != plainDTs {
			t.Fatalf("d=%d n=%d budget=%d: coded run %d after %d tests, uncoded %d after %d (q=%v rows=%v)", d, n, budget, got, codedDTs, want, plainDTs, q, rows)
		}

		pivot := make([]float64, d)
		for j := range pivot {
			pivot[j] = fuzzCodeVal(in[len(in)-1-j])
		}
		masks := make([]Mask, n)
		for j := range masks {
			masks[j] = ComputeMask(rows[j*d:(j+1)*d], pivot)
		}
		pm, qm := packMasks(d, masks), ComputeMask(q, pivot)
		plainDTs, codedDTs = 0, 0
		want = CountDominatorsInFlatRunMasked(rows, d, 0, n, q, pm, qm, nil, 0, budget, &plainDTs)
		if got := CountDominatorsInFlatRunMasked(rows, d, 0, n, q, pm, qm, codes, qc, budget, &codedDTs); got != want || codedDTs != plainDTs {
			t.Fatalf("d=%d n=%d budget=%d: coded masked run %d after %d tests, uncoded %d after %d (q=%v pivot=%v rows=%v)", d, n, budget, got, codedDTs, want, plainDTs, q, pivot, rows)
		}
	})
}

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
// every width, unrolled or generic — against a scalar brute-force oracle
// written from the dominance definition alone. Budget 1 of
// FuzzCountDominatorsInFlatRun is the skyline's "is the probe dominated"
// contract, and budget 1 of FuzzAppendDominatorsMasked the stream's
// "by whom". CI runs each target briefly with -fuzz as a smoke step;
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
			if got, want := DominatesFlat2(rows, j*d, q, 0, d), dominatesOracle(r, q); got != want {
				t.Fatalf("d=%d row %d: DominatesFlat2=%v oracle=%v (r=%v q=%v)", d, j, got, want, r, q)
			}
		}
	})
}

// FuzzAppendDominatorsMasked holds the stream's two band kernels to the
// unmasked brute-force scans: the first budget dominators of the probe
// in the same positions and order, and every row the probe dominates,
// each with no more dominance tests than the scan. The pivot is read
// from the input's last d bytes — the mask filter must be exact for any
// constant point, infinite coordinates included.
func FuzzAppendDominatorsMasked(f *testing.F) {
	f.Add([]byte{0, 4, 9, 9, 9, 9, 1, 1, 1, 1, 2, 2, 2, 2})
	f.Add([]byte{2, 8, 3, 3, 3, 3, 3, 3, 3, 3, 4, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9})
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

		var want []int32
		var tested uint64
		for j := 0; j < n && len(want) < budget; j++ {
			tested++
			if dominatesOracle(rows[j*d:(j+1)*d], q) {
				want = append(want, int32(j))
			}
		}
		var dts uint64
		if got := AppendDominatorsMasked(nil, rows, d, 0, n, q, qL1, l1, pm, qm, budget, &dts); !slices.Equal(got, want) || dts > tested {
			t.Fatalf("d=%d n=%d budget=%d: dominators %v after %d tests, oracle %v after %d (q=%v pivot=%v rows=%v)",
				d, n, budget, got, dts, want, tested, q, pivot, rows)
		}

		var under []int32
		for j := 0; j < n; j++ {
			if dominatesOracle(q, rows[j*d:(j+1)*d]) {
				under = append(under, int32(j))
			}
		}
		dts = 0
		if got := AppendDominatedMasked(nil, rows, d, 0, n, q, qL1, l1, pm, qm, &dts); !slices.Equal(got, under) || dts > uint64(n) {
			t.Fatalf("d=%d n=%d: dominated %v after %d tests, oracle %v (q=%v pivot=%v rows=%v)", d, n, got, dts, under, q, pivot, rows)
		}
	})
}

func FuzzCountDominatorsInFlatRun(f *testing.F) {
	f.Add([]byte{2, 4, 9, 9, 1, 1, 2, 2, 0, 3})
	f.Add([]byte{6, 3, 3, 3, 3, 3, 3, 3, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1})
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
		if got := CountDominatorsInFlatRun(rows, d, 0, n, q, 0, nil, nil, budget, &dts); got != want {
			t.Fatalf("d=%d n=%d budget=%d: count=%d oracle=%d (q=%v rows=%v)", d, n, budget, got, want, q, rows)
		}
	})
}

package point

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// countMaskedScalar is the row-by-row masked scan the packed kernel
// replaced, kept as its reference: one subset branch per row, then the
// dominance test from the definition, in row order, stopping at budget.
func countMaskedScalar(rows []float64, d, lo, hi int, q []float64, masks []Mask, qm Mask, budget int, dts *uint64) int {
	n := *dts
	c := 0
	off := lo * d
	for j := lo; j < hi; j, off = j+1, off+d {
		if masks[j]&qm != masks[j] {
			continue
		}
		n++
		r := rows[off : off+d : off+d]
		strict := false
		dominates := true
		for k, v := range r {
			w := q[k]
			if v > w {
				dominates = false
				break
			}
			if v < w {
				strict = true
			}
		}
		if dominates && strict {
			c++
			if c >= budget {
				break
			}
		}
	}
	*dts = n
	return c
}

// domRunM8Scalar is the unrolled d = 8 boolean body the level-2 scans
// ran before the packed kernel — the "scalar" side of
// BenchmarkMaskedScan.
func domRunM8Scalar(rows []float64, lo, hi int, q []float64, masks []Mask, qm Mask, dts *uint64) bool {
	q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
	n := *dts
	off := lo * 8
	for j := lo; j < hi; j, off = j+1, off+8 {
		if masks[j]&qm != masks[j] {
			continue
		}
		n++
		r := rows[off : off+8 : off+8]
		if r[0] > q0 || r[1] > q1 || r[2] > q2 || r[3] > q3 ||
			r[4] > q4 || r[5] > q5 || r[6] > q6 || r[7] > q7 {
			continue
		}
		if r[0] < q0 || r[1] < q1 || r[2] < q2 || r[3] < q3 ||
			r[4] < q4 || r[5] < q5 || r[6] < q6 || r[7] < q7 {
			*dts = n
			return true
		}
	}
	*dts = n
	return false
}

func packMasks(d int, masks []Mask) *PackedMasks {
	var pm PackedMasks
	pm.Reset(d)
	for _, m := range masks {
		pm.Append(m)
	}
	return &pm
}

func TestPackedMasksRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var pm PackedMasks
	for d := 1; d <= MaxDims; d++ {
		// One column reused across widths: Reset must leave no stale bits.
		pm.Reset(d)
		masks := make([]Mask, rng.Intn(70))
		for j := range masks {
			masks[j] = Mask(rng.Uint32()) & FullMask(d)
			if rng.Intn(4) == 0 {
				masks[j] = FullMask(d) // every lane bit, top one included
			}
			pm.Append(masks[j])
		}
		if pm.Len() != len(masks) {
			t.Fatalf("d=%d: Len=%d want %d", d, pm.Len(), len(masks))
		}
		for j, m := range masks {
			if got := pm.At(j); got != m {
				t.Fatalf("d=%d row %d: At=%b want %b", d, j, got, m)
			}
		}
	}
}

// FuzzSubsetFilterPacked cross-checks the word-at-a-time subset filter
// against the scalar reference at every lane width: the candidate rows
// and their order (through NextSubset), and the kernel's count and
// dominance-test advance at every budget up to one past the number of
// dominators. Input: d, lo, run length, probe mask, a PRNG seed for the
// coordinates, then four bytes per row mask — bit 31, which no mask
// uses, forces the mask under the probe's so candidates stay frequent
// at high d.
func FuzzSubsetFilterPacked(f *testing.F) {
	f.Add([]byte{8, 0, 9, 0x5a, 0, 0, 0, 1, 0x12, 0, 0, 0x80, 0xff, 0, 0, 0, 0x5a, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{3, 1, 0, 7, 0, 0, 0, 2})                                  // empty run
	f.Add([]byte{31, 3, 2, 0xff, 0xff, 0xff, 0x7f, 3, 1, 2, 3, 4})         // 32-bit lanes, run shorter than a word
	f.Add([]byte{12, 2, 200, 0xf0, 0x0f, 0, 0, 4, 0, 0, 0, 0x80, 9, 9, 0}) // 16-bit lanes, unaligned ends
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		d := int(data[0])%MaxDims + 1
		qm := Mask(binary.LittleEndian.Uint32(data[3:7])) & FullMask(d)
		rng := rand.New(rand.NewSource(int64(data[7])))
		body := data[8:]
		n := len(body) / 4
		if n > 96 {
			n = 96
		}
		masks := make([]Mask, n)
		for j := range masks {
			raw := binary.LittleEndian.Uint32(body[4*j:])
			masks[j] = Mask(raw) & FullMask(d)
			if raw>>31 != 0 {
				masks[j] &= qm
			}
		}
		lo := int(data[1]) % (n + 1)
		hi := lo + int(data[2])%(n-lo+1)
		pm := packMasks(d, masks)

		// Coordinates on a two-value grid below a constant probe, so a
		// candidate row dominates unless it is all-equal.
		rows := make([]float64, n*d)
		q := make([]float64, d)
		for i := range q {
			q[i] = 1
		}
		for i := range rows {
			rows[i] = float64(rng.Intn(4) / 3) // 0, 0, 0 or 1
			if rng.Intn(16) == 0 {
				rows[i] = 2
			}
		}

		var want []int
		for j := lo; j < hi; j++ {
			if masks[j].Subset(qm) {
				want = append(want, j)
			}
		}
		var got []int
		for j := pm.NextSubset(lo, hi, qm); j < hi; j = pm.NextSubset(j+1, hi, qm) {
			got = append(got, j)
		}
		if len(got) != len(want) {
			t.Fatalf("d=%d [%d,%d) qm=%b: candidates %v want %v", d, lo, hi, qm, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("d=%d [%d,%d) qm=%b: candidates %v want %v", d, lo, hi, qm, got, want)
			}
		}

		var all uint64
		total := countMaskedScalar(rows, d, lo, hi, q, masks, qm, n+1, &all)
		if all != uint64(len(want)) {
			t.Fatalf("reference tested %d rows, %d candidates", all, len(want))
		}
		for budget := 1; budget <= total+1; budget++ {
			wantDTs, gotDTs := uint64(5), uint64(5)
			wantC := countMaskedScalar(rows, d, lo, hi, q, masks, qm, budget, &wantDTs)
			gotC := CountDominatorsInFlatRunMasked(rows, d, lo, hi, q, pm, qm, budget, &gotDTs)
			if gotC != wantC || gotDTs != wantDTs {
				t.Fatalf("d=%d [%d,%d) qm=%b budget=%d: got (%d, %d dts) want (%d, %d dts)",
					d, lo, hi, qm, budget, gotC, gotDTs-5, wantC, wantDTs-5)
			}
		}
	})
}

// BenchmarkMaskedScan prices one visited row of a level-2 partition scan
// — the filter's own line next to BenchmarkRunnerFilter: a 4096-row
// d = 8 partition of mutually incomparable rows (coordinates summing to
// about d/2, as on an anticorrelated skyline), probes from the same
// surface that no row dominates, and masks that pass the subset filter
// 23 % of the time, the rate measured in Phase I on loadbench's
// batch_anti. Every scan therefore runs to the end, and ns/row is the
// mean cost of passing one row, tested or not.
func BenchmarkMaskedScan(b *testing.B) {
	const n, d, probes = 4096, 8, 64
	rng := rand.New(rand.NewSource(29))
	surface := func(dst []float64) {
		s := 0.0
		for i := range dst {
			dst[i] = rng.Float64()
			s += dst[i]
		}
		for i := range dst {
			dst[i] = dst[i] * (d / 2) / s
		}
	}
	rows := make([]float64, n*d)
	for j := 0; j < n; j++ {
		surface(rows[j*d : (j+1)*d])
	}
	const qm = Mask(0b01101101)
	masks := make([]Mask, n)
	for j := range masks {
		masks[j] = Mask(rng.Intn(1<<d)) &^ qm // a bit the probe lacks…
		for masks[j] == 0 {
			masks[j] = Mask(rng.Intn(1<<d)) &^ qm
		}
		if rng.Float64() < 0.23 {
			masks[j] = Mask(rng.Intn(1<<d)) & qm // …or none
		}
	}
	pm := packMasks(d, masks)
	qs := make([]float64, 0, probes*d)
	for len(qs) < cap(qs) {
		q := make([]float64, d)
		surface(q)
		var dts uint64
		if countMaskedScalar(rows, d, 0, n, q, masks, qm, 1, &dts) == 0 {
			qs = append(qs, q...)
		}
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes*n), "ns/row")
	}
	b.Run("scalar", func(b *testing.B) {
		var dts uint64
		for i := 0; i < b.N; i++ {
			for p := 0; p < probes; p++ {
				if domRunM8Scalar(rows, 0, n, qs[p*d:(p+1)*d], masks, qm, &dts) {
					b.Fatal("probe dominated")
				}
			}
		}
		report(b)
	})
	b.Run("packed", func(b *testing.B) {
		var dts uint64
		for i := 0; i < b.N; i++ {
			for p := 0; p < probes; p++ {
				if CountDominatorsInFlatRunMasked(rows, d, 0, n, qs[p*d:(p+1)*d], pm, qm, 1, &dts) != 0 {
					b.Fatal("probe dominated")
				}
			}
		}
		report(b)
	})
}

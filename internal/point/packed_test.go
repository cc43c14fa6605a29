package point

import (
	"encoding/binary"
	"math/rand"
	"slices"
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

// TestPackedMasksSwapRemove drives a column the way the stream index
// drives its band's: appends interleaved with swap-removes (Set of the
// last row's mask into the hole, then Truncate) and the occasional
// truncation to a shorter prefix, at every lane width. Every row must
// read back, and so must a row appended into a word whose dropped lanes
// held set bits.
func TestPackedMasksSwapRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var pm PackedMasks
	for d := 1; d <= MaxDims; d++ {
		pm.Reset(d)
		var ref []Mask
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case len(ref) == 0 || r < 5:
				m := Mask(rng.Uint32()) & FullMask(d)
				if rng.Intn(3) == 0 {
					m = FullMask(d)
				}
				pm.Append(m)
				ref = append(ref, m)
			case r < 9:
				p, last := rng.Intn(len(ref)), len(ref)-1
				pm.Set(p, pm.At(last))
				pm.Truncate(last)
				ref[p] = ref[last]
				ref = ref[:last]
			default:
				n := rng.Intn(len(ref) + 1)
				pm.Truncate(n)
				ref = ref[:n]
			}
			if pm.Len() != len(ref) {
				t.Fatalf("d=%d op %d: Len=%d want %d", d, op, pm.Len(), len(ref))
			}
			for j, m := range ref {
				if got := pm.At(j); got != m {
					t.Fatalf("d=%d op %d row %d: At=%b want %b", d, op, j, got, m)
				}
			}
		}
	}
}

// supersetRows lists the rows of [lo, hi) the superset filter passes
// for probe mask qm, in the order a kernel visits them.
func supersetRows(pm *PackedMasks, lo, hi int, qm Mask) []int {
	var rows []int
	probe, sp := pm.probe(qm), pm.span(lo, hi)
	for wi := sp.first; wi <= sp.last; wi++ {
		for z := sp.clip(wi, pm.supersets(wi, probe)); z != 0; z &= z - 1 {
			rows = append(rows, pm.row(wi, z))
		}
	}
	return rows
}

// TestSupersetFilterExact tables the superset filter at every lane
// width, at the edges the carry trick has to get right: empty and full
// masks, a lane whose only bit is its top one, and a row lacking just
// one of the probe's bits. Each case's row sits at every lane of a word
// between neighbours with the complementary mask, so a carry into or
// out of a lane would show as a wrong candidate.
func TestSupersetFilterExact(t *testing.T) {
	cases := []struct {
		d          int
		row, probe Mask
		want       bool
	}{
		{8, 0, 0, true},
		{8, 0xff, 0, true},
		{8, 0, 0x80, false},
		{8, 0x80, 0x80, true},
		{8, 0x7f, 0x80, false},
		{8, 0xff, 0xff, true},
		{8, 0xfe, 0xff, false},
		{5, 0b10101, 0b00101, true},
		{5, 0b10001, 0b00101, false},
		{16, 0x8000, 0x8000, true},
		{16, 0x7fff, 0x8000, false},
		{16, 0xffff, 0x0001, true},
		{12, 0x0ff0, 0x0ff1, false},
		{31, FullMask(31), 1 << 30, true},
		{31, 1<<30 - 1, 1 << 30, false},
		{31, 0, 0, true},
		{31, 0, 1, false},
	}
	for _, c := range cases {
		if got := c.probe.Subset(c.row); got != c.want {
			t.Fatalf("table row %+v: the definition says %v", c, got)
		}
		other := FullMask(c.d) &^ c.row
		const n = 9 // more rows than the widest word holds lanes
		for at := 0; at < n; at++ {
			masks := make([]Mask, n)
			for j := range masks {
				masks[j] = other
			}
			masks[at] = c.row
			var want []int
			for j, m := range masks {
				if c.probe.Subset(m) {
					want = append(want, j)
				}
			}
			if got := supersetRows(packMasks(c.d, masks), 0, n, c.probe); !slices.Equal(got, want) {
				t.Fatalf("d=%d row %b at %d, probe %b: candidates %v want %v", c.d, c.row, at, c.probe, got, want)
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
		codes, qc := codeColumn(rows, d, q)

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
			gotC := CountDominatorsInFlatRunMasked(rows, d, lo, hi, q, pm, qm, nil, 0, budget, &gotDTs)
			if gotC != wantC || gotDTs != wantDTs {
				t.Fatalf("d=%d [%d,%d) qm=%b budget=%d: got (%d, %d dts) want (%d, %d dts)",
					d, lo, hi, qm, budget, gotC, gotDTs-5, wantC, wantDTs-5)
			}
			codedDTs := uint64(5)
			if c := CountDominatorsInFlatRunMasked(rows, d, lo, hi, q, pm, qm, codes, qc, budget, &codedDTs); c != wantC || codedDTs != wantDTs {
				t.Fatalf("d=%d [%d,%d) qm=%b budget=%d coded: got (%d, %d dts) want (%d, %d dts)",
					d, lo, hi, qm, budget, c, codedDTs-5, wantC, wantDTs-5)
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
				if CountDominatorsInFlatRunMasked(rows, d, 0, n, qs[p*d:(p+1)*d], pm, qm, nil, 0, 1, &dts) != 0 {
					b.Fatal("probe dominated")
				}
			}
		}
		report(b)
	})
}

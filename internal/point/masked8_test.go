package point

import (
	"math"
	"testing"
)

// maskedBody is a body of the masked counting kernel: the Go body,
// CountDominatorsInFlatRunMasked, and the vector one,
// CountDominatorsInFlatRunMasked8.
type maskedBody struct {
	name string
	run  func(rows []float64, d, lo, hi int, q []float64, pm *PackedMasks, qm Mask, codes []uint64, qc uint64, budget int, dts *uint64) int
}

// maskedBodies returns the bodies that may run a coded scan at width
// d: the Go body always, and the vector body too at d ≤ 8 where the CPU
// has it. Tests that hold the kernel to a reference run it once per
// body, so both meet every guard.
func maskedBodies(d int) []maskedBody {
	bodies := []maskedBody{{"go", CountDominatorsInFlatRunMasked}}
	if HasAVX512BW() && d <= 8 {
		bodies = append(bodies, maskedBody{"avx512", CountDominatorsInFlatRunMasked8})
	}
	return bodies
}

// FuzzMaskedScan holds CountDominatorsInFlatRunMasked8 to the Go body
// it stands in for: the count and the advance of *dts at every budget
// from 1 to one past the number of dominators. The first byte picks d
// (2–8), the next two the span [lo, hi), the fourth the probe mask and
// the fifth the starting test count; each following pair of bytes is a
// row, a mask byte and a kind byte. A kind's low two bits pick it;
// bits 2–7 move coordinate c where bit 2 + c mod 6 is set. Kind 3
// moves coordinates a quarter below the probe's: a dominator, unless
// no bit moves one. Kinds 0 and 1 do the same and then put coordinate
// (kind >> 2) mod d half a unit above the probe's, so the code pre-test
// rejects the row. Kind 2 moves coordinates one ulp below the probe's
// and, with bit 7 set, coordinate (kind >> 2) mod d one ulp above it: a
// row whose code passes while its float test fails. The seeds' spans
// start and end mid-word, fit inside one word, align with words and
// cover three or more.
func FuzzMaskedScan(f *testing.F) {
	if !HasAVX512BW() {
		f.Skip("no AVX512F+BW and POPCNT with OS-saved ZMM state on this CPU: the vector body cannot run")
	}
	// A seed's rows pass the subset filter, and all but one, a dominator
	// in the middle of the span, fail the pre-test: the vector body
	// passes over every other word, the first and last clipped.
	row := func(dst []byte, i, mid int) []byte {
		kind := byte(i*4) &^ 3
		if i == mid {
			kind = byte(i*11) | 7
		}
		return append(dst, byte(i*37)|0x80, kind)
	}
	for _, s := range []struct{ d, lo, length, rows int }{
		{8, 3, 18, 24},  // starts and ends mid-word
		{7, 2, 4, 12},   // inside one word
		{6, 8, 16, 32},  // word-aligned
		{8, 1, 45, 48},  // six words
		{2, 0, 30, 40},  // 32-bit code lanes
		{4, 5, 60, 70},  // 16-bit code lanes
		{5, 9, 0, 10},   // empty
		{3, 7, 1, 8},    // one row, the word's last
		{8, 0, 64, 64},  // every row of eight words
		{8, 15, 17, 40}, // from a word's last lane to the next's first
	} {
		data := []byte{byte(s.d - 2), byte(s.lo), byte(s.length), 0xff, byte(s.rows)}
		for i := 0; i < s.rows; i++ {
			data = row(data, i, s.lo+s.length/2)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		d := int(data[0])%7 + 2
		qm := Mask(data[3]) & FullMask(d)
		start := uint64(data[4])
		body := data[5:]
		n := min(len(body)/2, 96)
		lo := int(data[1]) % (n + 1)
		hi := lo + int(data[2])%(n-lo+1)

		q := make([]float64, d)
		for c := range q {
			q[c] = 0.5 + 0.125*float64(c%3)
		}
		rows := make([]float64, n*d)
		masks := make([]Mask, n)
		for i := 0; i < n; i++ {
			m, kind := body[2*i], body[2*i+1]
			masks[i] = Mask(m) & FullMask(d)
			r := rows[i*d : (i+1)*d]
			for c := range r {
				r[c] = q[c]
				switch {
				case kind>>(2+c%6)&1 == 0:
				case kind&3 == 2:
					r[c] = math.Nextafter(q[c], 0)
				default:
					r[c] -= 0.25
				}
			}
			switch c := int(kind>>2) % d; kind & 3 {
			case 0, 1:
				r[c] = q[c] + 0.5
			case 2:
				if kind&0x80 != 0 {
					r[c] = math.Nextafter(q[c], 2)
				}
			}
		}
		codes, qc := codeColumn(rows, d, q)
		pm := packMasks(d, masks)

		var all uint64
		total := CountDominatorsInFlatRunMasked(rows, d, lo, hi, q, pm, qm, codes, qc, n+1, &all)
		for budget := 1; budget <= total+1; budget++ {
			wantDTs, gotDTs := start, start
			want := CountDominatorsInFlatRunMasked(rows, d, lo, hi, q, pm, qm, codes, qc, budget, &wantDTs)
			got := CountDominatorsInFlatRunMasked8(rows, d, lo, hi, q, pm, qm, codes[:hi], qc, budget, &gotDTs)
			if got != want || gotDTs != wantDTs {
				t.Fatalf("d=%d [%d,%d) qm=%b budget=%d: vector body (%d, %d tests), Go body (%d, %d tests)",
					d, lo, hi, qm, budget, got, gotDTs-start, want, wantDTs-start)
			}
		}
	})
}

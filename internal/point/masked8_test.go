package point

import (
	"math"
	"testing"
)

// FuzzMaskedScan holds countMasked, the Go probe's
// partition scan, to a row-by-row scan of the same span: a row whose
// mask is a subset of the probe's is a test, and a dominator only when
// its code word passes and its float test holds. The count and the
// advance of *dts must agree at every budget from 1 to one past the
// number of dominators. The first byte picks d (2–8), the next two the
// span [lo, hi), the fourth the probe mask and the fifth the starting
// test count; each following pair of bytes is a row, a mask byte and a
// kind byte. A kind's low two bits pick it; bits 2–7 move coordinate c
// where bit 2 + c mod 6 is set. Kind 3 moves coordinates a quarter
// below the probe's: a dominator, unless no bit moves one. Kinds 0 and
// 1 do the same and then put coordinate (kind >> 2) mod d half a unit
// above the probe's, so the code pre-test rejects the row. Kind 2 moves
// coordinates one ulp below the probe's and, with bit 7 set, coordinate
// (kind >> 2) mod d one ulp above it: a row whose code passes while its
// float test fails. The seeds' spans start and end mid-word, fit inside
// one word, align with words and cover three or more.
func FuzzMaskedScan(f *testing.F) {
	// A seed's rows pass the subset filter, and all but one, a dominator
	// in the middle of the span, fail the pre-test.
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

		h := codeGuards[d]
		scan := func(budget int, dts *uint64) int {
			c := 0
			for j := lo; j < hi && c < budget; j++ {
				if !masks[j].Subset(qm) {
					continue
				}
				*dts++
				if codeLE(codes[j], qc|h, h) && dominatesRow(rows[j*d:(j+1)*d], q) {
					c++
				}
			}
			return c
		}
		var all uint64
		total := scan(n+1, &all)
		for budget := 1; budget <= total+1; budget++ {
			wantDTs, gotDTs := start, start
			want := scan(budget, &wantDTs)
			got := countMasked(rows, d, lo, hi, q, pm, qm, codes[:hi], qc, budget, &gotDTs)
			if got != want || gotDTs != wantDTs {
				t.Fatalf("d=%d [%d,%d) qm=%b budget=%d: masked scan (%d, %d tests), row by row (%d, %d tests)",
					d, lo, hi, qm, budget, got, gotDTs-start, want, wantDTs-start)
			}
		}
	})
}

// FuzzDirectoryWalk holds PackedMasks.nextSubsetCoded, the Go probe's
// walk of the M(S) directory, to a walk entry by entry: the first entry
// whose mask is a subset of the probe's and whose code word passes the
// pre-test. Both walk [lo, hi) from lo and on from every entry found,
// and must find the same entries. The first byte picks d (2–8), the
// next two the span [lo, hi) and the fourth the probe mask; each
// following pair of bytes is an entry, a mask byte and a code byte.
// Every lane of the probe's code word is the middle code; lane c of an
// entry's is one above it where bit c of the code byte is set (the
// pre-test rejects the entry), else equal to it or, where bit c of the
// mask byte is set, one below. Most random code bytes set some bit of
// the d, so most entries are rejected, as minimum codes reject most
// partitions. The seeds pass one entry in the middle of a span and
// reject the rest; their spans start and end mid-word, fit inside one
// word, align with words and cover several.
func FuzzDirectoryWalk(f *testing.F) {
	for _, s := range []struct{ d, lo, length, entries int }{
		{8, 3, 18, 24},  // starts and ends mid-word
		{7, 2, 4, 12},   // inside one word
		{6, 8, 16, 32},  // word-aligned
		{5, 1, 45, 48},  // six words
		{2, 0, 30, 40},  // 32-bit code lanes
		{4, 5, 60, 70},  // 16-bit code lanes
		{3, 9, 0, 10},   // empty
		{8, 15, 17, 40}, // from a word's last lane to the next's first
	} {
		data := []byte{byte(s.d - 2), byte(s.lo), byte(s.length), 0xff}
		for i := 0; i < s.entries; i++ {
			code := byte(1) << (i % s.d)
			if i == s.lo+s.length/2 {
				code = 0
			}
			data = append(data, byte(i*37), code)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		d := int(data[0])%7 + 2
		qm := Mask(data[3]) & FullMask(d)
		body := data[4:]
		n := min(len(body)/2, 96)
		lo := int(data[1]) % (n + 1)
		hi := lo + int(data[2])%(n-lo+1)

		w := codeWidth(d)
		mid := uint64(1) << (min(w-1, 31) - 1)
		var qc uint64
		for c := 0; c < d; c++ {
			qc |= mid << (uint(c) * w)
		}
		masks := make([]Mask, n)
		codes := make([]uint64, n)
		for i := range masks {
			m, code := body[2*i], body[2*i+1]
			masks[i] = Mask(m) & FullMask(d)
			for c := 0; c < d; c++ {
				v := mid - uint64(m>>c&1)
				if code>>c&1 != 0 {
					v = mid + 1
				}
				codes[i] |= v << (uint(c) * w)
			}
		}
		pm := packMasks(d, masks)

		next := func(e int) int {
			for ; e < hi; e++ {
				if masks[e].Subset(qm) && CodeLE(codes[e], qc, d) {
					break
				}
			}
			return e
		}
		for want, got := next(lo), pm.nextSubsetCoded(lo, hi, qm, codes[:hi], qc, d); ; {
			if got != want {
				t.Fatalf("d=%d [%d,%d) qm=%b: nextSubsetCoded found %d, the entry-by-entry walk %d", d, lo, hi, qm, got, want)
			}
			if want >= hi {
				break
			}
			want, got = next(want+1), pm.nextSubsetCoded(want+1, hi, qm, codes[:hi], qc, d)
		}
	})
}

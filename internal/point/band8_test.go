package point

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzBandScan holds AppendDominatorsMasked and AppendDominatedMasked
// with the vector bodies on to the same kernels with them off, their Go
// bodies: the same positions after the same advance of *dts, the
// dominators at every budget from 1 to 8. The first byte picks d (1–8),
// the next two the span [lo, hi), the fourth the probe mask, the fifth
// the starting test count and the sixth the probe's norm; each following
// triple of bytes is a row: a mask byte, a kind byte and a norm byte.
//
// A kind's low two bits pick it; bits 2–7 select coordinate c where bit
// 2 + c mod 6 is set. Kind 0 moves the selected coordinates a quarter
// below the probe's (a dominator, unless none is selected) and kind 1 a
// quarter above (a row the probe dominates). Kind 2 moves them one ulp
// below and, with bit 7 set, coordinate (kind >> 2) mod d one ulp above:
// a row whose code passes while its float test fails. Kind 3 moves them
// a quarter below and coordinate (kind >> 2) mod d half a unit above,
// so the code pre-test rejects the row in both directions.
//
// The norms are the kernels' input, not recomputed, so a norm byte's
// low three bits pick any of them: the row's computed L1 (0–2), the
// probe's norm exactly (3), one ulp below or above it (4, 5), ±Inf by
// bit 3 (6) or NaN (7). The probe's norm byte picks its computed L1
// (0–1), ±Inf by bit 2 (2) or NaN (3). The seeds' spans start and end
// mid-word, fit inside one word, align with words and cover several;
// most of each seed's rows fail the pre-test, and one row in the middle
// of its span is a dominator and the next one a row the probe
// dominates.
func FuzzBandScan(f *testing.F) {
	if !HasAVX512BW() {
		f.Skip("no AVX512F+BW and POPCNT with OS-saved ZMM state on this CPU: the vector bodies cannot run")
	}
	defer SetVectorBodies(SetVectorBodies(true))
	for _, s := range []struct{ d, lo, length, rows int }{
		{8, 3, 18, 24},  // starts and ends mid-word
		{7, 2, 4, 12},   // inside one word
		{6, 8, 16, 32},  // word-aligned
		{8, 1, 45, 48},  // six words
		{1, 0, 30, 40},  // 64-bit code lanes
		{2, 5, 30, 40},  // 32-bit code lanes
		{4, 5, 60, 70},  // 16-bit code lanes
		{5, 9, 0, 10},   // empty
		{3, 7, 1, 8},    // one row, the word's last
		{8, 15, 17, 40}, // from a word's last lane to the next's first
	} {
		data := []byte{byte(s.d - 1), byte(s.lo), byte(s.length), 0x5a, byte(s.rows), byte(s.rows)}
		mid := s.lo + s.length/2
		for i := 0; i < s.rows; i++ {
			kind := byte(i*4) | 3
			switch {
			case i == mid:
				kind = byte(i*11)&^3 | 4
			case i == mid+1:
				kind = byte(i*11)&^3 | 5
			}
			data = append(data, byte(i*37), kind, byte(i))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		d := int(data[0])%8 + 1
		qm := Mask(data[3]) & FullMask(d)
		start := uint64(data[4])
		body := data[6:]
		n := min(len(body)/3, 96)
		lo := int(data[1]) % (n + 1)
		hi := lo + int(data[2])%(n-lo+1)

		q := make([]float64, d)
		for c := range q {
			q[c] = 0.5 + 0.125*float64(c%3)
		}
		qL1 := L1(q)
		switch b := data[5]; b & 3 {
		case 2:
			qL1 = math.Inf(1 - 2*int(b>>2&1))
		case 3:
			qL1 = math.NaN()
		}
		rows := make([]float64, n*d)
		masks := make([]Mask, n)
		l1 := make([]float64, n)
		for i := 0; i < n; i++ {
			m, kind, nb := body[3*i], body[3*i+1], body[3*i+2]
			masks[i] = Mask(m) & FullMask(d)
			r := rows[i*d : (i+1)*d]
			for c := range r {
				r[c] = q[c]
				if kind>>(2+c%6)&1 == 0 {
					continue
				}
				switch kind & 3 {
				case 1:
					r[c] += 0.25
				case 2:
					r[c] = math.Nextafter(q[c], 0)
				default:
					r[c] -= 0.25
				}
			}
			switch c := int(kind>>2) % d; kind & 3 {
			case 2:
				if kind&0x80 != 0 {
					r[c] = math.Nextafter(q[c], 2)
				}
			case 3:
				r[c] = q[c] + 0.5
			}
			switch nb & 7 {
			case 3:
				l1[i] = qL1
			case 4:
				l1[i] = math.Nextafter(qL1, math.Inf(-1))
			case 5:
				l1[i] = math.Nextafter(qL1, math.Inf(1))
			case 6:
				l1[i] = math.Inf(1 - 2*int(nb>>3&1))
			case 7:
				l1[i] = math.NaN()
			default:
				l1[i] = L1(r)
			}
		}
		codes, qc := codeColumn(rows, d, q)
		pm := packMasks(d, masks)

		for budget := 1; budget <= 8; budget++ {
			wantDTs, gotDTs := start, start
			vector = false
			want := AppendDominatorsMasked([]int32{-7}, rows, d, lo, hi, q, qL1, l1, pm, qm, codes, qc, budget, &wantDTs)
			vector = true
			got := AppendDominatorsMasked([]int32{-7}, rows, d, lo, hi, q, qL1, l1[:hi], pm, qm, codes[:hi], qc, budget, &gotDTs)
			if !slices.Equal(got, want) || gotDTs != wantDTs {
				t.Fatalf("d=%d [%d,%d) qm=%b qL1=%v budget=%d: vector dominators %v after %d tests, Go body %v after %d",
					d, lo, hi, qm, qL1, budget, got[1:], gotDTs-start, want[1:], wantDTs-start)
			}
		}
		wantDTs, gotDTs := start, start
		vector = false
		want := AppendDominatedMasked([]int32{-7}, rows, d, lo, hi, q, qL1, l1, pm, qm, codes, qc, &wantDTs)
		vector = true
		got := AppendDominatedMasked([]int32{-7}, rows, d, lo, hi, q, qL1, l1[:hi], pm, qm, codes[:hi], qc, &gotDTs)
		if !slices.Equal(got, want) || gotDTs != wantDTs {
			t.Fatalf("d=%d [%d,%d) qm=%b qL1=%v: vector dominated %v after %d tests, Go body %v after %d",
				d, lo, hi, qm, qL1, got[1:], gotDTs-start, want[1:], wantDTs-start)
		}
	})
}

// BenchmarkBandScan prices one visited row of the stream index's two
// band scans at the shape of loadbench's stream_churn band: the skyline
// of 50 000 independent uniform rows at d = 8, in (L1, coordinates)
// order as a placement pass leaves it, with masks against the band's
// per-dimension median and code words from a quantizer fitted to its
// column ranges, as the index's repivot sets them. Each probe is a band
// row, which no band row dominates and which dominates none, so every
// scan visits the whole band and ns/row is the mean cost of passing
// one row, filtered or tested. "go" and "avx512" are each scan with the
// vector bodies off and on (forEachBody; on a CPU with AVX512F+BW only).
func BenchmarkBandScan(b *testing.B) {
	const src, d, probes = 50000, 8, 64
	rng := rand.New(rand.NewSource(31))
	all := make([]float64, src*d)
	for i := range all {
		all[i] = rng.Float64()
	}
	order := make([]int, src)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int {
		return cmp.Compare(L1(all[x*d:(x+1)*d]), L1(all[y*d:(y+1)*d]))
	})
	var rows []float64
	for _, i := range order {
		r := all[i*d : (i+1)*d]
		var dts uint64
		if CountDominatorsInFlatRun(rows, d, 0, len(rows)/d, r, 1, &dts) == 0 {
			rows = append(rows, r...)
		}
	}
	n := len(rows) / d
	pivot := make([]float64, d)
	col := make([]float64, n)
	for c := range pivot {
		for j := range col {
			col[j] = rows[j*d+c]
		}
		slices.Sort(col)
		pivot[c] = col[n/2]
	}
	z := fitQuantizer(rows, d, nil)
	pm, l1, _, _ := maskColumn(rows, d, n, pivot, pivot)
	codes := make([]uint64, n)
	for j := range codes {
		codes[j] = z.Code(rows[j*d : (j+1)*d])
	}
	picks := make([]int, probes)
	for p := range picks {
		picks[p] = rng.Intn(n)
	}
	forEachBody(func(body string) {
		for _, scan := range []struct {
			name string
			run  func(q []float64, qL1 float64, qm Mask, qc uint64, dts *uint64) int
		}{
			{"first", func(q []float64, qL1 float64, qm Mask, qc uint64, dts *uint64) int {
				return len(AppendDominatorsMasked(nil, rows, d, 0, n, q, qL1, l1, pm, qm, codes, qc, 1, dts))
			}},
			{"dominated", func(q []float64, qL1 float64, qm Mask, qc uint64, dts *uint64) int {
				return len(AppendDominatedMasked(nil, rows, d, 0, n, q, qL1, l1, pm, qm, codes, qc, dts))
			}},
		} {
			b.Run(scan.name+"/"+body, func(b *testing.B) {
				var dts uint64
				for i := 0; i < b.N; i++ {
					for _, j := range picks {
						q := rows[j*d : (j+1)*d]
						if scan.run(q, l1[j], pm.At(j), codes[j], &dts) != 0 {
							b.Fatal("band row dominated or dominating")
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes*n), "ns/row")
			})
		}
	})
}

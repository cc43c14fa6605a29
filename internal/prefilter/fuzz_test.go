package prefilter

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"skybench/internal/dataset"
	"skybench/internal/par"
	"skybench/internal/point"
	"skybench/internal/verify"
)

// tieVals is the value palette of core's FuzzHybridArms that makes
// computed L1 norms tie between a row and one it dominates: 0.9 and its
// two math.Nextafter neighbours (one ulp in one coordinate is often lost
// in the sum), and 1e300, which absorbs 0.5 and 0.9 whole. Eight values
// in at most eight dimensions also make duplicate rows common.
var tieVals = [8]float64{0.9, math.Nextafter(0.9, 1), math.Nextafter(0.9, 0), 0.5, 1e300, 0, 1, 2}

// FuzzRunnerFilter holds Runner.Filter to its contract on seeded inputs
// built from five bytes. The first picks the distribution (bits 0–1:
// correlated, independent, anticorrelated, or rows drawn from tieVals),
// T (bit 2: 1 or 2, or 3 when bit 7 is set, whose uneven ranges leave
// segments of unequal length and, on the smallest inputs, empty ones), k
// (bits 3–4: 1–4) and β (bits 5–6: 1, 4, 8 or 16);
// the second d (1–8); the next two n (1–3 000, so queues fill and pass 1
// tests rows against them); the last the generator's seed. One Runner
// serves every input, so no state may leak between calls. The filter
// must keep every row of the brute-force k-skyband, return its
// survivors ascending, and return for each the L1 norm of its row, bit
// for bit, and the row itself where it keeps rows.
func FuzzRunnerFilter(f *testing.F) {
	f.Add([]byte{0x00, 7, 0xb7, 0x0b, 1}) // correlated, d = 8, n = 3 000, k = 1, β = 1, T = 1
	f.Add([]byte{0x45, 3, 0xcf, 0x07, 2}) // independent, d = 4, n = 2 000, T = 2, β = 8
	f.Add([]byte{0x32, 5, 0xe7, 0x03, 3}) // anticorrelated, d = 6, n = 1 000, T = 1, k = 3, β = 4
	f.Add([]byte{0x6b, 7, 0xdb, 0x05, 4}) // tie palette, d = 8, n = 1 500, T = 1, k = 2, β = 16
	f.Add([]byte{0x1f, 1, 0x57, 0x02, 5}) // tie palette, d = 2, n = 600, T = 2, k = 4, β = 1
	f.Add([]byte{0x04, 0, 0x0f, 0x00, 6}) // correlated, d = 1, n = 16, T = 2
	f.Add([]byte{0x80, 7, 0xb7, 0x0b, 7}) // correlated, d = 8, n = 3 000, β = 1, T = 3
	f.Add([]byte{0xc1, 3, 0x01, 0x00, 8}) // independent, d = 4, n = 2, β = 8, T = 3: an idle thread
	f.Add([]byte{0xd3, 5, 0xe7, 0x03, 9}) // tie palette, d = 6, n = 1 000, k = 3, β = 8, T = 3
	pools := []*par.Pool{par.NewPool(1), par.NewPool(2), par.NewPool(3)}
	f.Cleanup(func() {
		for _, p := range pools {
			p.Close()
		}
	})
	teams := []*par.Team{pools[0].Lease(1), pools[1].Lease(2), pools[2].Lease(3)}
	r := NewRunner()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		team := teams[data[0]>>2&1]
		if data[0]&0x80 != 0 {
			team = teams[2]
		}
		k := int(data[0]>>3&3) + 1
		beta := [4]int{1, 4, 8, 16}[data[0]>>5&3]
		d := int(data[1]%8) + 1
		n := (int(data[2])|int(data[3])<<8)%3000 + 1
		seed := int64(data[4])
		var m point.Matrix
		if dist := data[0] & 3; dist < 3 {
			m = dataset.Generate(dataset.AllDistributions[dist], n, d, seed)
		} else {
			m = point.NewMatrix(n, d)
			rng := rand.New(rand.NewSource(seed))
			for i := range m.Flat() {
				m.Flat()[i] = tieVals[rng.Intn(len(tieVals))]
			}
		}

		surv, l1, rows := r.Filter(m.View(), beta, k, team, nil)
		if len(l1) != len(surv) {
			t.Fatalf("%d survivors, %d norms", len(surv), len(l1))
		}
		for j, i := range surv {
			if j > 0 && i <= surv[j-1] {
				t.Fatalf("survivors not ascending: %d after %d", i, surv[j-1])
			}
			if want := point.L1(m.Row(i)); math.Float64bits(l1[j]) != math.Float64bits(want) {
				t.Fatalf("survivor %d: norm %v, want %v", i, l1[j], want)
			}
			if rows != nil && !slices.Equal(rows.Row(j), m.Row(i)) {
				t.Fatalf("survivor %d: row %v, want %v", i, rows.Row(j), m.Row(i))
			}
		}
		band, _ := verify.BruteForceSkyband(m, k)
		j := 0
		for _, i := range band {
			for j < len(surv) && surv[j] < i {
				j++
			}
			if j == len(surv) || surv[j] != i {
				t.Fatalf("d=%d n=%d k=%d β=%d T=%d: band row %d was pruned", d, n, k, beta, team.Threads(), i)
			}
		}
	})
}

package point

import (
	"math"
	"testing"
)

// scanVals is FuzzPass1Scan's value palette: grid values, both signed
// zeros, 0.9 and its one-ulp neighbours, a magnitude that absorbs the
// others, an infinity and a NaN — values whose compares tie, or differ
// in one bit.
var scanVals = [16]float64{
	0, math.Copysign(0, -1), 0.25, 0.5,
	0.75, 1, 2, 0.9,
	math.Nextafter(0.9, 1), math.Nextafter(0.9, 0), 1e300, -1,
	math.Inf(1), math.NaN(), 0.125, 3,
}

// FuzzPass1Scan holds Scan8 to the Go body it replaces in the
// pre-filter's pass 1: cntRunSC8 on the row-major queue, run row by row
// from the first row until one has fewer than budget dominators. Both
// must stop at the same row and count the same tests. The first byte
// picks the budget (1–8) and the starting test count; the next 64 the
// queue, eight bytes a slot; each following group of eight bytes a row.
// A byte's low four bits pick a palette value and bit 5 moves it one ulp
// up. A group whose first byte has bit 4 set is derived instead: a queue
// slot from the slot before it, each later coordinate one ulp down where
// its bit 5 is set, and a row from slot byte>>5, one ulp up likewise. So
// slots dominate or duplicate one another, and rows are duplicates of
// the queue, dominated by one slot or by several, or incomparable.
func FuzzPass1Scan(f *testing.F) {
	if !HasScan8() {
		f.Skip("no AVX-512 with OS-saved ZMM state on this CPU: Scan8 cannot run")
	}
	grid := make([]byte, 1+64+8*6)
	for i := range grid {
		grid[i] = byte(i * 7)
	}
	f.Add(grid)
	chain := make([]byte, 1+64+8*4)
	chain[0] = 3 // budget 4
	for s := 1; s < 8; s++ {
		chain[1+s*8], chain[1+s*8+s%7+1] = 0x10, 0x20
	}
	chain[65], chain[73], chain[81], chain[89] = 0x10, 0xf0, 0x70, 0x30
	chain[75] = 0x20
	f.Add(chain)
	f.Add(make([]byte, 1+64)) // no rows
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1+64 {
			return
		}
		budget := int(data[0]%8) + 1
		start := uint64(data[0] >> 3)
		// fill writes an 8-byte group into dst: palette values, or base
		// moved one ulp toward dir where a later byte has bit 5 set.
		fill := func(dst []float64, g []byte, base []float64, dir float64) {
			for c := range dst {
				switch {
				case base == nil:
					dst[c] = scanVals[g[c]&15]
				case c > 0 && g[c]&0x20 != 0:
					dst[c] = math.Nextafter(base[c], dir)
					continue
				default:
					dst[c] = base[c]
					continue
				}
				if g[c]&0x20 != 0 {
					dst[c] = math.Nextafter(dst[c], math.Inf(1))
				}
			}
		}
		var dense [64]float64
		for s := 0; s < 8; s++ {
			g := data[1+s*8 : 1+(s+1)*8]
			var base []float64
			if s > 0 && g[0]&0x10 != 0 {
				base = dense[(s-1)*8 : s*8]
			}
			fill(dense[s*8:(s+1)*8], g, base, math.Inf(-1))
		}
		var cols [64]float64
		for s := 0; s < 8; s++ {
			for c := 0; c < 8; c++ {
				cols[c*8+s] = dense[s*8+c]
			}
		}
		data = data[1+64:]
		n := min(len(data)/8, 64)
		rows := make([]float64, n*8)
		for i := 0; i < n; i++ {
			g := data[i*8 : (i+1)*8]
			var base []float64
			if g[0]&0x10 != 0 {
				s := int(g[0] >> 5)
				base = dense[s*8 : (s+1)*8]
			}
			fill(rows[i*8:(i+1)*8], g, base, math.Inf(1))
		}

		wantDTs, want := start, n
		for i := 0; i < n; i++ {
			if cntRunSC8(dense[:], 0, 8, rows[i*8:(i+1)*8], budget, &wantDTs) < budget {
				want = i
				break
			}
		}
		gotDTs := start
		if got := Scan8(&cols, rows, budget, &gotDTs); got != want || gotDTs != wantDTs {
			t.Fatalf("budget=%d n=%d: Scan8 stopped at row %d after %d tests, the Go body at %d after %d",
				budget, n, got, gotDTs-start, want, wantDTs-start)
		}
	})
}

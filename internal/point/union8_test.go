package point

import (
	"math"
	"testing"
)

// pass2Go is pre-filter pass 2's Go body over stored 8-column rows: for
// each row in turn, the union points whose norm is below the row's are
// the prefix of the ascending norms that a binary search finds, and
// CountDominatorsInFlatRun tests the row against them. It returns the
// index of the first row with fewer than budget dominators, or the
// number of rows, and is the reference unionScan8 is held to.
func pass2Go(urows, ul1, rows, l1 []float64, budget int, dts *uint64) int {
	for i := range l1 {
		a, b := 0, len(ul1)
		for a < b {
			mid := int(uint(a+b) >> 1)
			if ul1[mid] < l1[i] {
				a = mid + 1
			} else {
				b = mid
			}
		}
		if CountDominatorsInFlatRun(urows, 8, 0, a, rows[i*8:i*8+8], budget, dts) < budget {
			return i
		}
	}
	return len(l1)
}

// normSteps are the gaps between consecutive union norms FuzzPass2Scan
// draws: ties, one ulp, small and large steps and a jump to +∞.
var normSteps = [8]float64{0, 0, -1, 0.125, 0.5, 1, 1e300, math.Inf(1)}

// FuzzPass2Scan holds unionScan8 to pass 2's Go body (pass2Go) on
// FuzzPass1Scan's palette: unions of 1–32 points (one to four chunks,
// the last padded) at budgets 1–8, with ascending, NaN-free norms, as
// the pre-filter takes the scan only on such a union. Both must stop at
// the same row and count the same tests.
//
// The first byte picks the budget and the starting test count, the
// second the union's size (its low five bits, plus one). Then come eight
// bytes a union point, then one byte a union point for its norm: the
// first's top four bits pick a palette value (NaN read as 0), each
// later one's low three bits the gap from the norm before it
// (normSteps; −1 is one ulp up, and −∞ + ∞ is a tie), then nine bytes a
// row: eight coordinates and a norm selector. Coordinates are read as
// in FuzzPass1Scan: a byte's low four bits pick a palette value and bit
// 5 moves it one ulp up, and a group whose first byte has bit 4 set is
// derived from an earlier union point (a point from the one before it,
// each later coordinate one ulp down where its bit 5 is set; a row from
// point byte>>5, one ulp up likewise). The norm selector's low five bits
// pick a union point x and its top three the row's norm: x's norm, one
// ulp above or below it, +∞, −∞, NaN, the row's L1, or a palette value.
func FuzzPass2Scan(f *testing.F) {
	if !HasAVX512BW() {
		f.Skip("no AVX512F+BW and POPCNT with OS-saved ZMM state on this CPU: unionScan8 cannot run")
	}
	seed := func(budget, size byte, rows int, gen func(i int) byte) []byte {
		nq := int(size&31) + 1
		data := make([]byte, 2+nq*9+rows*9)
		data[0], data[1] = budget, size
		for i := 2; i < len(data); i++ {
			data[i] = gen(i)
		}
		return data
	}
	f.Add(seed(0, 7, 6, func(i int) byte { return byte(i * 7) }))
	f.Add(seed(3, 15, 12, func(i int) byte { return byte(i * 13) }))
	f.Add(seed(7, 31, 16, func(i int) byte { return byte(i*29 + i>>3) }))
	// chain: nq union points, each dominating the one before it, with
	// norms 1, 2, …, nq; rows one ulp above point r%8 in one column, so
	// that point and every later one dominate row r, with norms +∞
	// (every slot tested), the norm of point r+1 (the slots below it)
	// and, for the last row, NaN (no slot: the survivor the scan
	// returns at). At budget 1 over 8 points, row 7 has exactly one
	// dominator.
	chain := func(budget byte, nq int) []byte {
		data := seed(budget, byte(nq-1), 9, func(i int) byte { return 0 })
		for s := 1; s < nq; s++ {
			data[2+s*8], data[2+s*8+s%7+1] = 0x10, 0x20
		}
		data[2+nq*8] = 0x50 // first norm 1
		for s := 1; s < nq; s++ {
			data[2+nq*8+s] = 5 // then steps of 1
		}
		for r := 0; r < 9; r++ {
			g := data[2+nq*9+r*9:]
			g[0], g[r%8] = 0x10|byte(r%8)<<5, g[r%8]|0x20
			g[8] = 3 << 5
			if r%2 == 1 {
				g[8] = byte(r + 1) // mode 0: point r+1's norm
			}
		}
		data[len(data)-1] = 5 << 5
		return data
	}
	f.Add(chain(1, 12))
	f.Add(chain(0, 8))
	f.Add(seed(0, 4, 0, func(i int) byte { return byte(i) })) // no rows
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		budget := int(data[0]%8) + 1
		start := uint64(data[0] >> 3)
		nq := int(data[1]&31) + 1
		data = data[2:]
		if len(data) < nq*9 {
			return
		}
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
		urows := make([]float64, nq*8)
		for s := 0; s < nq; s++ {
			g := data[s*8 : s*8+8]
			var base []float64
			if s > 0 && g[0]&0x10 != 0 {
				base = urows[(s-1)*8 : s*8]
			}
			fill(urows[s*8:s*8+8], g, base, math.Inf(-1))
		}
		ul1 := make([]float64, nq)
		for s, g := range data[nq*8 : nq*9] {
			switch step := normSteps[g&7]; {
			case s == 0:
				ul1[0] = scanVals[g>>4]
				if math.IsNaN(ul1[0]) {
					ul1[0] = 0
				}
			case step < 0:
				ul1[s] = math.Nextafter(ul1[s-1], math.Inf(1))
			default:
				ul1[s] = ul1[s-1] + step
			}
			if math.IsNaN(ul1[s]) { // −∞ + ∞
				ul1[s] = ul1[s-1]
			}
		}
		data = data[nq*9:]
		n := min(len(data)/9, 64)
		rows, l1 := make([]float64, n*8), make([]float64, n)
		for i := 0; i < n; i++ {
			g := data[i*9 : i*9+9]
			var base []float64
			if g[0]&0x10 != 0 {
				s := int(g[0]>>5) % nq
				base = urows[s*8 : s*8+8]
			}
			fill(rows[i*8:i*8+8], g, base, math.Inf(1))
			x := ul1[int(g[8]&31)%nq]
			switch g[8] >> 5 {
			case 0:
				l1[i] = x
			case 1:
				l1[i] = math.Nextafter(x, math.Inf(1))
			case 2:
				l1[i] = math.Nextafter(x, math.Inf(-1))
			case 3:
				l1[i] = math.Inf(1)
			case 4:
				l1[i] = math.Inf(-1)
			case 5:
				l1[i] = math.NaN()
			case 6:
				l1[i] = L1(rows[i*8 : i*8+8])
			default:
				l1[i] = scanVals[g[1]&15]
			}
		}

		wantDTs := start
		want := pass2Go(urows, ul1, rows, l1, budget, &wantDTs)
		u := layoutUnion8(nil, urows, ul1)
		gotDTs := start
		if got := unionScan8(u, rows, l1, budget, &gotDTs); got != want || gotDTs != wantDTs {
			t.Fatalf("budget=%d union=%d n=%d: unionScan8 stopped at row %d after %d tests, the Go body at %d after %d",
				budget, nq, n, got, gotDTs-start, want, wantDTs-start)
		}
	})
}

// TestLayoutUnion8 checks the layout unionScan8 reads: point i at slot
// i%8 of chunk i/8, column-major, norms after the columns, the last
// chunk padded with NaN coordinates and +∞ norms, and dst reused when
// it is large enough.
func TestLayoutUnion8(t *testing.T) {
	for _, n := range []int{0, 1, 8, 9, 17} {
		rows, l1 := make([]float64, n*8), make([]float64, n)
		for i := range rows {
			rows[i] = float64(i)
		}
		for i := range l1 {
			l1[i] = -float64(i)
		}
		u := layoutUnion8(make([]float64, 0, 4*unionChunk8), rows, l1)
		if want := (n + 7) / 8 * unionChunk8; len(u) != want || cap(u) != 4*unionChunk8 {
			t.Fatalf("n=%d: len %d cap %d, want len %d in the given storage", n, len(u), cap(u), want)
		}
		for i := range (n + 7) / 8 * 8 {
			ch, s := u[i/8*unionChunk8:], i%8
			for c := range 8 {
				if x := ch[c*8+s]; i < n && x != rows[i*8+c] || i >= n && !math.IsNaN(x) {
					t.Fatalf("n=%d: point %d column %d is %v", n, i, c, x)
				}
			}
			if x := ch[64+s]; i < n && x != l1[i] || i >= n && !math.IsInf(x, 1) {
				t.Fatalf("n=%d: point %d norm is %v", n, i, x)
			}
		}
	}
}

package point

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// scanVals is FuzzPass1Scan's value palette: grid values, both signed
// zeros, 0.9 and its one-ulp neighbours, a magnitude that absorbs the
// others, both infinities and a NaN — values whose compares tie, or
// differ in one bit.
var scanVals = [16]float64{
	0, math.Copysign(0, -1), 0.25, 0.5,
	0.75, 1, 2, 0.9,
	math.Nextafter(0.9, 1), math.Nextafter(0.9, 0), 1e300, -1,
	math.Inf(1), math.NaN(), 0.125, math.Inf(-1),
}

// FuzzPass1Scan holds Scan8 to the Go body it replaces in the
// pre-filter's pass 1, on the identity view of 8-column rows and on the
// views that drop columns of them: CountDominatorsInFlatRun on the
// view-space queue, run row by row on the view-space rows from the first
// row until one has fewer than budget dominators. Scan8 gets the queue
// column-major by source column with NaN in every dropped column, and
// the source rows as they are. Both must stop at the same row and count
// the same tests. The first byte picks the budget (1–8) and the starting
// test count; the second the kept columns (bit c keeps column c; 0 keeps
// all 8); the next 64 the queue, eight bytes a slot; each following
// group of eight bytes a row, palette values in the dropped columns too.
// A byte's low four bits pick a palette value and bit 5 moves it one ulp
// up. A group whose first byte has bit 4 set is derived instead: a queue
// slot from the slot before it, each later coordinate one ulp down where
// its bit 5 is set, and a row from slot byte>>5, one ulp up likewise. So
// slots dominate or duplicate one another, and rows are duplicates of
// the queue, dominated by one slot or by several, or incomparable.
func FuzzPass1Scan(f *testing.F) {
	if !HasAVX512BW() {
		f.Skip("no AVX512F+BW and POPCNT with OS-saved ZMM state on this CPU: Scan8 cannot run")
	}
	grid := make([]byte, 2+64+8*6)
	for i := range grid {
		grid[i] = byte(i * 7)
	}
	grid[1] = 0xff
	f.Add(grid)
	chain := make([]byte, 2+64+8*4)
	chain[0], chain[1] = 3, 0xff // budget 4, all 8 kept
	for s := 1; s < 8; s++ {
		chain[2+s*8], chain[2+s*8+s%7+1] = 0x10, 0x20
	}
	chain[66], chain[74], chain[82], chain[90] = 0x10, 0xf0, 0x70, 0x30
	chain[76] = 0x20
	f.Add(chain)
	f.Add(append([]byte{0, 0xff}, make([]byte, 64)...)) // no rows
	half := slices.Clone(grid)
	half[1] = 0b01101001 // 4 of 8 kept
	f.Add(half)
	one := slices.Clone(chain)
	one[1] = 0b00100000 // column 5 kept alone
	f.Add(one)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2+64 {
			return
		}
		budget := int(data[0]%8) + 1
		start := uint64(data[0] >> 3)
		keep := data[1]
		if keep == 0 {
			keep = 0xff
		}
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
			g := data[2+s*8 : 2+(s+1)*8]
			var base []float64
			if s > 0 && g[0]&0x10 != 0 {
				base = dense[(s-1)*8 : s*8]
			}
			fill(dense[s*8:(s+1)*8], g, base, math.Inf(-1))
		}
		// view keeps the kept columns of an 8-column row, in order.
		view := func(row []float64) []float64 {
			var out []float64
			for c, x := range row {
				if keep>>c&1 != 0 {
					out = append(out, x)
				}
			}
			return out
		}
		var cols [64]float64
		var vdense []float64
		for s := 0; s < 8; s++ {
			for c := 0; c < 8; c++ {
				cols[c*8+s] = math.NaN()
				if keep>>c&1 != 0 {
					cols[c*8+s] = dense[s*8+c]
				}
			}
			vdense = append(vdense, view(dense[s*8:(s+1)*8])...)
		}
		dv := len(vdense) / 8
		data = data[2+64:]
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
			if CountDominatorsInFlatRun(vdense, dv, 0, 8, view(rows[i*8:(i+1)*8]), budget, &wantDTs) < budget {
				want = i
				break
			}
		}
		gotDTs := start
		if got := Scan8(&cols, rows, budget, &gotDTs); got != want || gotDTs != wantDTs {
			t.Fatalf("budget=%d keep=%08b n=%d: Scan8 stopped at row %d after %d tests, the Go body at %d after %d",
				budget, keep, n, got, gotDTs-start, want, wantDTs-start)
		}
	})
}

// BenchmarkScan8 is pass 1's kernel rung: Scan8 over rows a zero queue
// prunes end to end (every row positive, so each of the 8 slots
// dominates it), at budget 1, so every row is tested and ns/row is the
// scan's cost of one row. "cached" is 4 096 rows (256 KiB, resident in
// L2 across iterations), the short stretches of drop-only views and
// small inputs; "streamed" is 1 M rows (64 MiB), batch_corr's shape,
// which the scan reads from memory. SetBytes is the rows' size, so the
// figure reads as MB/s against the floor BenchmarkRunnerFilter's "read"
// row measures.
func BenchmarkScan8(b *testing.B) {
	if !HasAVX512BW() {
		b.Skip("no AVX512F+BW and POPCNT with OS-saved ZMM state on this CPU: Scan8 cannot run")
	}
	for _, bc := range []struct {
		name string
		n    int
	}{{"cached", 4096}, {"streamed", 1 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(bc.n)))
			rows := make([]float64, bc.n*8)
			for i := range rows {
				rows[i] = 1 + rng.Float64()
			}
			var cols [64]float64
			var dts uint64
			b.SetBytes(int64(len(rows) * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if Scan8(&cols, rows, 1, &dts) != bc.n {
					b.Fatal("a row survived the zero queue")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.n), "ns/row")
		})
	}
}

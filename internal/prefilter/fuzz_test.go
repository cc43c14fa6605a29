package prefilter

import (
	"fmt"
	"math"
	"math/rand"
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

// fuzzOps reads a preference vector for d columns from one byte: bit c
// drops column c, and a kept column c < 4 is negated when bit c + 4 is
// set (at d = 8 that bit also drops column c + 4). When every column is
// dropped, the last is kept. At d ≤ 4 every vector is one byte's; at
// d = 8 every drop-only vector is.
func fuzzOps(b byte, d int) []point.PrefOp {
	ops := make([]point.PrefOp, d)
	kept := false
	for c := range ops {
		switch {
		case b>>c&1 != 0:
			ops[c] = point.PrefDrop
		case c < 4 && b>>(c+4)&1 != 0:
			ops[c] = point.PrefNegate
		}
		kept = kept || ops[c] != point.PrefDrop
	}
	if !kept {
		ops[d-1] = point.PrefKeep
	}
	return ops
}

// FuzzRunnerFilter holds Runner.Filter to its contract on seeded inputs
// built from five bytes and an optional sixth. The first picks the
// distribution (bits 0–1: correlated, independent, anticorrelated, or
// rows drawn from tieVals),
// T (bit 2: 1 or 2, or 3 when bit 7 is set, whose uneven ranges leave
// segments of unequal length and, on the smallest inputs, empty ones), k
// (bits 3–4: 1–4) and β (bits 5–6: 1, 4, 8 or 16);
// the second d (1–8); the next two n (1–3 000, so queues fill and pass 1
// tests rows against them); the fifth the generator's seed; the sixth,
// when present, the preference view the filter reads the rows through
// (fuzzOps; without it, the identity). A drop-only view of d = 8 at
// β = 8 is the shape pass 1's queue takes its vector body on, where
// the CPU has it. Each input runs with and without the stop rule. One Runner
// serves every input, so no state may leak between calls. The filter
// must keep every row of the brute-force k-skyband of the staged copy,
// return its survivors ascending, and keep At's contract (checkAt):
// where it returns a row, the staged row and point.L1 of it, bit for
// bit, and where it returns none, no norm.
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
	// Views. Drop-only at d = 8 and β = 8: pass 1's vector path.
	f.Add([]byte{0x44, 7, 0xb7, 0x0b, 10, 0x0f}) // correlated, d = 8, n = 3 000, T = 2, β = 8: columns 4–7 kept
	f.Add([]byte{0xc9, 7, 0xcf, 0x07, 11, 0xdf}) // independent, d = 8, n = 2 000, T = 3, k = 2, β = 8: column 5 alone
	f.Add([]byte{0xc7, 7, 0xe7, 0x03, 12, 0x05}) // tie palette, d = 8, n = 1 000, T = 3, β = 8: columns 0 and 2 dropped
	// A negated column: the Go path.
	f.Add([]byte{0x52, 7, 0xe7, 0x03, 13, 0x10}) // anticorrelated, d = 8, n = 1 000, k = 3, β = 8: column 0 negated, 4 dropped
	f.Add([]byte{0x47, 5, 0xdb, 0x05, 14, 0x21}) // tie palette, d = 6, n = 1 500, T = 2, β = 8: column 0 dropped, 1 negated
	f.Add([]byte{0x26, 3, 0xf3, 0x01, 15, 0x87}) // anticorrelated, d = 4, n = 500, T = 2, β = 4: column 3 alone, negated
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
		var ops []point.PrefOp
		if len(data) > 5 {
			ops = fuzzOps(data[5], d)
		}
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

		sm := staged(m, ops)
		var v point.View
		v.Reset(m.Flat(), n, d, ops)
		for _, stop := range []bool{false, true} {
			surv, l1, rows := survivors(r.Filter(v, beta, k, stop, team, nil))
			for j, i := range surv {
				if j > 0 && i <= surv[j-1] {
					t.Fatalf("survivors not ascending: %d after %d", i, surv[j-1])
				}
			}
			checkAt(t, fmt.Sprintf("stop=%v", stop), sm, surv, l1, rows)
			band, _ := verify.BruteForceSkyband(sm, k)
			j := 0
			for _, i := range band {
				for j < len(surv) && surv[j] < i {
					j++
				}
				if j == len(surv) || surv[j] != i {
					t.Fatalf("d=%d ops=%v n=%d k=%d β=%d T=%d stop=%v: band row %d was pruned", d, ops, n, k, beta, team.Threads(), stop, i)
				}
			}
		}
	})
}

// sameBits reports whether x and y are the same float64, bit for bit.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

package core

import (
	"math"
	"slices"
	"testing"

	"skybench/internal/point"
	"skybench/internal/stats"
	"skybench/internal/verify"
)

// armRun is one Hybrid run reduced to what FuzzHybridArms compares: the
// result in confirmation order, its dominator counts (nil on a skyline
// run) and the dominance tests, detached from the Context.
type armRun struct {
	idx    []int
	counts []int32
	dts    uint64
}

func runArm(c *Context, opt HybridOptions, m point.Matrix) armRun {
	var st stats.Stats
	opt.Stats = &st
	idx := c.Hybrid(m.View(), opt)
	return armRun{slices.Clone(idx), slices.Clone(c.Counts()), st.DominanceTests}
}

// armVals are FuzzHybridArms' two value palettes, eight values each.
// The first is small integers, whose L1 norms are exact sums. The second
// makes computed norms tie while one row dominates the other: 0.9 and its
// two math.Nextafter neighbours (one ulp in one coordinate is often lost
// in the sum), and 1e300, which absorbs 0.5 and 0.9 whole.
var armVals = [2][8]float64{
	{0, 1, 2, 3, 4, 5, 6, 7},
	{0.9, math.Nextafter(0.9, 1), math.Nextafter(0.9, 0), 0.5, 1e300, 0, 1, 2},
}

// armProbeSeed is the equal-norm probe's n = 2 case in FuzzHybridArms'
// encoding: d = 8, α = 16, the second palette; two rows around 0.9, then
// 20 pairs whose first row is 0.9 but one ulp more in coordinate j mod 8
// and whose second, 0.9 everywhere, dominates it.
func armProbeSeed() []byte {
	const d = 8
	b := []byte{d - 1, 0x10 | 15, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 0, 2, 1, 0, 2}
	for j := range 20 {
		q := make([]byte, d)
		q[j%d] = 1
		b = append(b, q...)
		b = append(b, make([]byte, d)...)
	}
	return b
}

// FuzzHybridArms holds the shipped arm, which skips M(S) partitions on
// their minimum code word, to the paper's arm (HybridOptions.NoCodes),
// and both, with Q-Flow, to internal/verify's brute force. The first byte
// picks d (1–31, every code-word lane width); the second picks α (1–16,
// its low nibble, so Phase I has a store to skip in) and, by bit 4, the
// value palette (armVals); the rest are coordinates, one a byte. The
// second palette makes computed L1 norms tie between a row and one it
// dominates, so every scan that tests only earlier rows must take them
// in (L1, coordinates) order and skip none for its norm. At k ∈ {1, 3}
// and T ∈ {1, 2}, both arms return the oracle's band, the same indices
// in the same order and the same counts, and Q-Flow returns the oracle's
// band; at T = 1, where the count is repeatable, the shipped arm makes
// no more tests than the paper's.
func FuzzHybridArms(f *testing.F) {
	f.Add([]byte{2, 3, 0, 7, 1, 6, 2, 5, 3, 4, 4, 3, 5, 2, 6, 1, 7, 0, 3, 3, 2, 2})
	f.Add([]byte{3, 1, 0, 7, 7, 7, 0, 7, 7, 7, 0, 1, 1, 1, 1, 1, 1, 4, 4, 4, 2, 5, 3, 6, 1, 4})
	f.Add([]byte{7, 4, 1, 2, 3, 4, 5, 6, 7, 8, 7, 6, 5, 4, 3, 2, 0, 0, 0, 0, 7, 7, 7, 7, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{19, 2, 5, 1, 4, 2, 8, 3, 7, 0, 6, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 7, 6, 5, 4, 3, 2, 1})
	f.Add(armProbeSeed())
	teams := leaseSizes(f, 2)
	c := NewContext()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		d := int(data[0])%point.MaxDims + 1
		alpha := int(data[1])%16 + 1
		vals := &armVals[data[1]>>4&1]
		data = data[2:]
		n := min(len(data)/d, 256)
		if n == 0 {
			return
		}
		m := point.NewMatrix(n, d)
		for i := range m.Flat() {
			m.Flat()[i] = vals[data[i]%8]
		}
		for _, k := range []int{1, 3} {
			wantIdx, wantCnt := verify.BruteForceSkyband(m, k)
			exact := func(idx []int, counts []int32) bool {
				if k == 1 {
					return verify.SameSkyline(idx, wantIdx)
				}
				return verify.SameBand(idx, counts, wantIdx, wantCnt)
			}
			for _, threads := range []int{1, 2} {
				opt := HybridOptions{Team: teams[threads], Alpha: alpha, SkybandK: k}
				shipped := runArm(c, opt, m)
				opt.NoCodes = true
				paper := runArm(c, opt, m)
				if !slices.Equal(shipped.idx, paper.idx) || !slices.Equal(shipped.counts, paper.counts) {
					t.Fatalf("d=%d n=%d α=%d k=%d T=%d: shipped arm %v %v, paper's arm %v %v",
						d, n, alpha, k, threads, shipped.idx, shipped.counts, paper.idx, paper.counts)
				}
				if !exact(shipped.idx, shipped.counts) {
					t.Fatalf("d=%d n=%d α=%d k=%d T=%d: Hybrid %v %v, brute force %v %v",
						d, n, alpha, k, threads, shipped.idx, shipped.counts, wantIdx, wantCnt)
				}
				if threads == 1 && shipped.dts > paper.dts {
					t.Fatalf("d=%d n=%d α=%d k=%d: the shipped arm makes %d tests, the paper's %d",
						d, n, alpha, k, shipped.dts, paper.dts)
				}
				idx := c.QFlow(m.View(), QFlowOptions{Team: teams[threads], Alpha: alpha, SkybandK: k})
				if !exact(idx, c.Counts()) {
					t.Fatalf("d=%d n=%d α=%d k=%d T=%d: Q-Flow %v %v, brute force %v %v",
						d, n, alpha, k, threads, idx, c.Counts(), wantIdx, wantCnt)
				}
			}
		}
	})
}

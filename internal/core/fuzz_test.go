package core

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
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

// runArms runs the shipped arm and the paper's (HybridOptions.NoCodes)
// on m.
func runArms(c *Context, opt HybridOptions, m point.Matrix) (shipped, paper armRun) {
	shipped = runArm(c, opt, m)
	opt.NoCodes = true
	return shipped, runArm(c, opt, m)
}

// same reports whether two runs returned the same indices in the same
// order and the same counts and, with tests set, made the same
// dominance tests.
func (a armRun) same(b armRun, tests bool) bool {
	return slices.Equal(a.idx, b.idx) && slices.Equal(a.counts, b.counts) && (!tests || a.dts == b.dts)
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
// no more tests than the paper's. Where the CPU has the AVX-512 bodies,
// each arm runs again with them on (point.SetVectorBodies; every other
// run has them off) and must return the same indices, order and counts
// and, at T = 1, make the same tests.
func FuzzHybridArms(f *testing.F) {
	defer point.SetVectorBodies(point.VectorBodies())
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
				point.SetVectorBodies(false)
				shipped, paper := runArms(c, opt, m)
				if !shipped.same(paper, false) {
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
				if point.SetVectorBodies(true); point.VectorBodies() {
					vShipped, vPaper := runArms(c, opt, m)
					if !vShipped.same(shipped, threads == 1) || !vPaper.same(paper, threads == 1) {
						t.Fatalf("d=%d n=%d α=%d k=%d T=%d: vector bodies on: shipped %v %v after %d tests, paper's %v %v after %d; off: shipped %v %v after %d, paper's %v %v after %d",
							d, n, alpha, k, threads, vShipped.idx, vShipped.counts, vShipped.dts, vPaper.idx, vPaper.counts, vPaper.dts,
							shipped.idx, shipped.counts, shipped.dts, paper.idx, paper.counts, paper.dts)
					}
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

// probeVals is FuzzProbeStore's value palette: small integers, and 0.9
// with its two one-ulp neighbours, so stored rows and probes coincide,
// tie and differ by one ulp in a coordinate.
var probeVals = [8]float64{0, 1, 2, 3, 0.5, 0.9, math.Nextafter(0.9, 1), math.Nextafter(0.9, 0)}

// probeStore builds a store as a run leaves one: rows masked against
// pivot (every mask 0 on the Q-Flow shape), sorted by (level, mask), L1
// and coordinates, coded by quant and appended α rows at a time.
func probeStore(s *skylineStore, rows point.Matrix, pivot []float64, quant *point.Quantizer, qflow, level2, skip bool, alpha int) {
	n, d := rows.N(), rows.D()
	masks := make([]point.Mask, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
		if !qflow {
			masks[i] = point.ComputeMask(rows.Row(i), pivot)
		}
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		if ka, kb := masks[a].CompoundKey(d), masks[b].CompoundKey(d); ka != kb {
			return cmp.Compare(ka, kb)
		}
		if la, lb := point.L1(rows.Row(a)), point.L1(rows.Row(b)); la != lb {
			return cmp.Compare(la, lb)
		}
		return slices.Compare(rows.Row(a), rows.Row(b))
	})
	work := point.NewMatrix(n, d)
	wmask := make([]point.Mask, n)
	wcode := make([]uint64, n)
	for i, j := range idx {
		copy(work.Row(i), rows.Row(j))
		wmask[i], wcode[i] = masks[j], quant.Code(rows.Row(j))
	}
	s.reset(d, skip, level2)
	for lo := 0; lo < n; lo += alpha {
		s.update(work, idx, wmask, wcode, nil, lo, min(alpha, n-lo))
	}
}

// FuzzProbeStore holds Phase I's probe, skylineStore.countDominators,
// to its scalar reference (refCountDominators) with the vector bodies
// off, and with them on (point.ProbeDirectory's vector body, where the
// CPU has it) to the Go probe: the same count and the same tests booked, at every
// budget from 1 to 4, with the pivot, every row of the store (each is a
// level-2 pivot, a duplicate of one or equal to a stored row) and each
// row one ulp above or below in one coordinate as the probe. The first
// byte picks d (1–8); the second the store's shape: level 2 (bit 0),
// the directory's minimum-code skip (bit 1), Q-Flow's one partition of
// masks 0 without either (bit 2) and α (bits 3–7, 1–32); the third the
// prefix of rows the quantizer is fitted to, in 256ths of the rows, so
// later rows may code outside its range; the fourth the pivot row and
// the fifth the number of rows (1–160, so partitions cross the
// kernel's 64-row chunks). The next eight seed the rows: coordinates
// drawn from probeVals, and one row in eight a copy of an earlier one.
// An input is a handful of bytes, so the fuzzer spends its time on
// probes, not on shrinking inputs that encode every row.
func FuzzProbeStore(f *testing.F) {
	defer point.SetVectorBodies(point.VectorBodies())
	for _, s := range []struct {
		d, shape, prefix, rows int
	}{
		{8, 3 | 1<<3, 128, 160}, // the shipped arm, α = 2
		{8, 2 | 7<<3, 16, 150},  // NoLevel2: the skip without level 2
		{8, 0 | 31<<3, 255, 90}, // NoMS: neither
		{8, 4 | 15<<3, 60, 130}, // Q-Flow
		{8, 1 | 3<<3, 100, 140}, // level 2 without the skip
		{5, 3 | 3<<3, 8, 120},   // 7-bit code lanes at d = 5
		{3, 3 | 0<<3, 255, 70},  // α = 1: a partition a row
		{1, 3 | 5<<3, 30, 40},   // d = 1
	} {
		f.Add([]byte{byte(s.d - 1), byte(s.shape), byte(s.prefix), byte(s.rows / 3), byte(s.rows - 1), 1, 2, 3, 4, 5, 6, 7, byte(s.d)})
	}
	s := &skylineStore{}
	f.Fuzz(func(t *testing.T, data []byte) { probeStoreCase(t, s, data) })
}

// probeStoreCase is one FuzzProbeStore input, probed on s.
func probeStoreCase(t *testing.T, s *skylineStore, data []byte) {
	if len(data) < 13 {
		return
	}
	d := int(data[0])%8 + 1
	level2, skip, qflow := data[1]&1 != 0, data[1]&2 != 0, data[1]&4 != 0
	if qflow {
		level2, skip = false, false
	}
	alpha := int(data[1]>>3) + 1
	n := int(data[4])%160 + 1
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(data[5:13]))))
	rows := point.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(8) == 0 {
			copy(rows.Row(i), rows.Row(rng.Intn(i)))
			continue
		}
		for c := range rows.Row(i) {
			rows.Row(i)[c] = probeVals[rng.Intn(8)]
		}
	}
	pivot := slices.Clone(rows.Row(int(data[3]) % n))
	prefix := int(data[2])*n/256 + 1
	lo, hi := slices.Clone(rows.Row(0)), slices.Clone(rows.Row(0))
	for i := 1; i < prefix; i++ {
		for c, v := range rows.Row(i) {
			lo[c], hi[c] = min(lo[c], v), max(hi[c], v)
		}
	}
	var quant point.Quantizer
	quant.Reset(d, lo, hi)
	probeStore(s, rows, pivot, &quant, qflow, level2, skip, alpha)

	probes := [][]float64{pivot}
	for i := 0; i < n; i++ {
		r := rows.Row(i)
		near := slices.Clone(r)
		c := rng.Intn(d)
		if rng.Intn(2) == 0 {
			near[c] = math.Nextafter(r[c], 4)
		} else {
			near[c] = math.Nextafter(r[c], -1)
		}
		probes = append(probes, r, near)
	}
	for _, q := range probes {
		var qm point.Mask
		if !qflow {
			qm = point.ComputeMask(q, pivot)
		}
		qc := quant.Code(q)
		for budget := 1; budget <= 4; budget++ {
			goDTs, refDTs := uint64(budget), uint64(budget)
			point.SetVectorBodies(false)
			got := s.countDominators(q, qc, qm, budget, &goDTs)
			if ref := s.refCountDominators(q, qc, qm, level2, budget, &refDTs); got != ref || goDTs != refDTs {
				t.Fatalf("d=%d n=%d level2=%v skip=%v qflow=%v α=%d q=%v budget=%d: Go probe %d after %d tests, reference %d after %d",
					d, n, level2, skip, qflow, alpha, q, budget, got, goDTs, ref, refDTs)
			}
			if point.SetVectorBodies(true); point.VectorBodies() {
				vecDTs := uint64(budget)
				if vec := s.countDominators(q, qc, qm, budget, &vecDTs); vec != got || vecDTs != goDTs {
					t.Fatalf("d=%d n=%d level2=%v skip=%v qflow=%v α=%d q=%v budget=%d: vector probe %d after %d tests, Go probe %d after %d",
						d, n, level2, skip, qflow, alpha, q, budget, vec, vecDTs, got, goDTs)
				}
			}
		}
	}
}

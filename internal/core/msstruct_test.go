package core

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"skybench/internal/point"
)

// buildStore feeds rows into a skylineStore the way Hybrid does: sorted
// by (level, mask, L1) relative to pivot, appended in one batch per
// block, each with its code word from a quantizer fitted to the rows,
// which it returns for coding probes. Rows must already be mutually
// non-dominating.
func buildStore(t *testing.T, rows [][]float64, pivot []float64, blockSize int, level2 bool) (*skylineStore, *point.Quantizer) {
	t.Helper()
	d := len(pivot)
	m := point.FromRows(rows)
	n := m.N()
	lo, hi := slices.Clone(m.Row(0)), slices.Clone(m.Row(0))
	for i := 1; i < n; i++ {
		for j, v := range m.Row(i) {
			lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
		}
	}
	z := new(point.Quantizer)
	z.Reset(d, lo, hi)
	masks := make([]point.Mask, n)
	keys := make([]uint64, n)
	l1 := make([]float64, n)
	for i := 0; i < n; i++ {
		masks[i] = point.ComputeMask(m.Row(i), pivot)
		keys[i] = masks[i].CompoundKey(d)
		l1[i] = point.L1(m.Row(i))
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// three-key sort
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			ia, ib := idx[a], idx[b]
			if keys[ib] < keys[ia] || (keys[ib] == keys[ia] && l1[ib] < l1[ia]) {
				idx[a], idx[b] = idx[b], idx[a]
			}
		}
	}
	sorted := point.NewMatrix(n, d)
	sl1 := make([]float64, n)
	smask := make([]point.Mask, n)
	sorig := make([]int, n)
	scode := make([]uint64, n)
	for i, j := range idx {
		copy(sorted.Row(i), m.Row(j))
		sl1[i] = l1[j]
		smask[i] = masks[j]
		sorig[i] = j
		scode[i] = z.Code(m.Row(j))
	}
	s := newSkylineStore(d)
	for lo := 0; lo < n; lo += blockSize {
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		s.update(sorted, sl1, sorig, smask, scode, nil, lo, hi-lo, level2)
	}
	return s, z
}

// mutuallyNonDominating filters a random set down to its skyline so it
// is a legal skylineStore payload.
func mutuallyNonDominating(rows [][]float64) [][]float64 {
	var out [][]float64
	for i, p := range rows {
		dominated := false
		for j, q := range rows {
			if i != j && point.Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

func TestStoreStructuralInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pivot := []float64{2, 2, 2}
	for trial := 0; trial < 50; trial++ {
		var rows [][]float64
		for i := 0; i < 60; i++ {
			rows = append(rows, []float64{
				float64(rng.Intn(5)), float64(rng.Intn(5)), float64(rng.Intn(5)),
			})
		}
		rows = mutuallyNonDominating(rows)
		if len(rows) == 0 {
			continue
		}
		s, _ := buildStore(t, rows, pivot, 7, true)

		if s.size() != len(rows) {
			t.Fatalf("store size %d, want %d", s.size(), len(rows))
		}
		// Sentinel terminates M(S) and points one past the end.
		np := s.msMask.Len()
		if len(s.msStart) != np+1 || s.msStart[np] != s.size() {
			t.Fatalf("sentinel: %d starts for %d partitions, last %d, want %d", len(s.msStart), np, s.msStart[np], s.size())
		}
		// Entries have strictly increasing starts and strictly
		// increasing compound keys (partitions arrive in sort order).
		for e := 1; e <= np; e++ {
			if s.msStart[e] <= s.msStart[e-1] {
				t.Fatalf("entry %d start %d not increasing", e, s.msStart[e])
			}
		}
		for e := 1; e < np; e++ {
			if s.msMask.At(e).CompoundKey(3) <= s.msMask.At(e-1).CompoundKey(3) {
				t.Fatalf("entry %d mask %b out of order", e, s.msMask.At(e))
			}
		}
		// Every point's level-1 mask matches its partition's mask.
		for e := 0; e < np; e++ {
			for j := s.msStart[e]; j < s.msStart[e+1]; j++ {
				if m1 := point.ComputeMask(s.row(j), pivot); m1 != s.msMask.At(e) {
					t.Fatalf("point %d level-1 mask %b ≠ partition %b", j, m1, s.msMask.At(e))
				}
			}
			// The partition pivot retains its level-1 mask in mask2.
			lo := s.msStart[e]
			if s.mask2.At(lo) != s.msMask.At(e) {
				t.Fatalf("partition pivot %d level-2 mask altered", lo)
			}
			// Members' level-2 masks are relative to the pivot.
			for j := lo + 1; j < s.msStart[e+1]; j++ {
				want := point.ComputeMask(s.row(j), s.row(lo))
				if s.mask2.At(j) != want {
					t.Fatalf("point %d level-2 mask %b, want %b", j, s.mask2.At(j), want)
				}
			}
			// The directory's code is its members' lane-wise minimum.
			if got, want := codeLanes(s.msCode[e], s.d), s.refMinCode(lo, s.msStart[e+1]); !slices.Equal(got, want) {
				t.Fatalf("partition %d minimum code lanes %v, members' minimum %v", e, got, want)
			}
		}
	}
}

// countDominators at budget 1 must agree with a brute-force scan of the
// stored skyline for arbitrary query points: with and without level 2,
// and with level 2 and the minimum-code skip both off, the NoMS
// ablation's scan.
func TestDominatedHybridMatchesBruteScan(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pivot := []float64{3, 3, 3, 3}
	for trial := 0; trial < 40; trial++ {
		var rows [][]float64
		for i := 0; i < 80; i++ {
			rows = append(rows, []float64{
				float64(rng.Intn(7)), float64(rng.Intn(7)),
				float64(rng.Intn(7)), float64(rng.Intn(7)),
			})
		}
		rows = mutuallyNonDominating(rows)
		if len(rows) == 0 {
			continue
		}
		for _, cfg := range []struct{ level2, skip bool }{{true, true}, {false, true}, {false, false}} {
			level2 := cfg.level2
			s, z := buildStore(t, rows, pivot, 9, level2)
			s.skip = cfg.skip
			for probe := 0; probe < 200; probe++ {
				q := []float64{
					float64(rng.Intn(7)), float64(rng.Intn(7)),
					float64(rng.Intn(7)), float64(rng.Intn(7)),
				}
				want := false
				for _, r := range rows {
					if point.Dominates(r, q) {
						want = true
						break
					}
				}
				var dts uint64
				qc := z.Code(q)
				got := s.countDominators(q, qc, point.ComputeMask(q, pivot), level2, 1, &dts) != 0
				if got != want {
					t.Fatalf("%+v: countDominators(%v, budget 1) dominated = %v, want %v", cfg, q, got, want)
				}
			}
		}
	}
}

func TestStoreUpdateEmptyBlockIsNoop(t *testing.T) {
	s := newSkylineStore(2)
	s.update(point.NewMatrix(0, 2), nil, nil, nil, nil, nil, 0, 0, true)
	if s.size() != 0 || s.msMask.Len() != 0 || len(s.msStart) != 0 {
		t.Fatal("empty update must not create entries")
	}
}

// The scalar references for Phase I: Algorithm 3 and its counting form
// restated one row at a time — a subset branch per
// directory entry and per row, the dominance test from the definition —
// over the same store, and on a partitioned run the directory's code
// skip, from the members' code words lane by lane.
// TestHybridCountsPinned holds the word-at-a-time product code to their
// answers and to their dominance-test counts.

// codeLanes splits a d-dimensional code word into its d lanes (the
// layout of point.Quantizer: d rounded up to a power of two lanes of
// equal width, the top bit of each a guard that a code word leaves 0).
func codeLanes(word uint64, d int) []uint64 {
	w := uint(64 >> bits.Len(uint(d-1)))
	lanes := make([]uint64, d)
	for j := range lanes {
		lanes[j] = word >> (uint(j) * w) & (1<<(w-1) - 1)
	}
	return lanes
}

// refMinCode is the lane-wise minimum of the code words of rows
// [lo, hi), lane by lane.
func (s *skylineStore) refMinCode(lo, hi int) []uint64 {
	m := codeLanes(s.code[lo], s.d)
	for j := lo + 1; j < hi; j++ {
		for l, v := range codeLanes(s.code[j], s.d) {
			m[l] = min(m[l], v)
		}
	}
	return m
}

// refCodeSkip reports that the directory skips partition [lo, hi) for
// a probe coded qc: on a partitioned run, some lane of qc is below every
// member's code in that lane, so no member can dominate the probe.
func (s *skylineStore) refCodeSkip(lo, hi int, qc uint64) bool {
	if !s.skip {
		return false
	}
	q := codeLanes(qc, s.d)
	for l, v := range s.refMinCode(lo, hi) {
		if v > q[l] {
			return true
		}
	}
	return false
}

// refScan tests rows [lo, hi) against q in order, skipping row j when
// masks is non-nil and masks[j] ⊄ qm, and stops at budget dominators.
func (s *skylineStore) refScan(lo, hi int, q []float64, masks *point.PackedMasks, qm point.Mask, budget int, dts *uint64) int {
	c := 0
	for j := lo; j < hi && c < budget; j++ {
		if masks != nil && !masks.At(j).Subset(qm) {
			continue
		}
		*dts++
		if point.Dominates(s.row(j), q) {
			c++
		}
	}
	return c
}

func (s *skylineStore) refDominatedHybrid(q []float64, qc uint64, qMask point.Mask, level2 bool, dts *uint64) bool {
	for e := 0; e < s.msMask.Len(); e++ {
		if !s.msMask.At(e).Subset(qMask) {
			continue
		}
		lo, hi := s.msStart[e], s.msStart[e+1]
		if s.refCodeSkip(lo, hi, qc) {
			continue
		}
		if !level2 {
			if s.refScan(lo, hi, q, nil, 0, 1, dts) != 0 {
				return true
			}
			continue
		}
		*dts++
		m2 := point.ComputeMask(q, s.row(lo))
		if m2 == point.FullMask(s.d) {
			return !point.Equals(s.row(lo), q)
		}
		if s.refScan(lo+1, hi, q, &s.mask2, m2, 1, dts) != 0 {
			return true
		}
	}
	return false
}

func (s *skylineStore) refCountDominators(q []float64, qc uint64, qMask point.Mask, level2 bool, budget int, dts *uint64) int {
	c := 0
	for e := 0; e < s.msMask.Len() && c < budget; e++ {
		if !s.msMask.At(e).Subset(qMask) {
			continue
		}
		lo, hi := s.msStart[e], s.msStart[e+1]
		if s.refCodeSkip(lo, hi, qc) {
			continue
		}
		if !level2 {
			c += s.refScan(lo, hi, q, nil, 0, budget-c, dts)
			continue
		}
		*dts++
		m2 := point.ComputeMask(q, s.row(lo))
		if m2 == point.FullMask(s.d) {
			if point.Equals(s.row(lo), q) {
				continue
			}
			if c++; c >= budget {
				break
			}
		}
		c += s.refScan(lo+1, hi, q, &s.mask2, m2, budget-c, dts)
	}
	return c
}

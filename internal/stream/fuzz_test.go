package stream

import (
	"math"
	"slices"
	"testing"
)

// fuzzGrid holds the values a fresh row is drawn from: few enough that
// rows coincide and tie, and inexact in binary, so sums round and a
// Nextafter neighbour's norm can tie its row's.
var fuzzGrid = [8]float64{0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1}

// FuzzIndexOps decodes bytes into a trace of index operations and holds
// the index to the brute-force band after every one. The first byte
// picks k ∈ {1, 2} (bit 0), d ∈ [2, 8] (bits 1–6) and a rebuild
// threshold low enough to fire often (bit 7). Then each operation is
// one byte, its low two bits the kind, followed by its arguments:
//
//	0: insert a fresh row, d bytes on fuzzGrid;
//	1: delete live row op>>2;
//	2: insert an exact duplicate of live row op>>2;
//	3: insert live row b>>1 (b the next byte) with coordinate op>>2
//	   moved one ulp up (b&1 = 1) or down.
//
// Live-row selectors are taken modulo the live count.
func FuzzIndexOps(f *testing.F) {
	// The equal-norm repro at d = 8, both orders: a row of 0.9s and its
	// neighbour one ulp up in coordinate 0, whose computed norms tie.
	nines := []byte{0, 6, 6, 6, 6, 6, 6, 6, 6}
	f.Add(slices.Concat([]byte{6 << 1}, nines, []byte{3, 1}))
	f.Add(slices.Concat([]byte{6<<1 | 1}, nines, []byte{3, 1, 1, 3, 0}))
	f.Add(slices.Concat([]byte{0x80 | 2<<1 | 1}, []byte{0, 1, 2, 0, 2, 1, 3, 2, 0, 0, 3, 1, 5, 4}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0]&1)
		d := 2 + int(data[0]>>1&63)%7
		opt := Options{K: k}
		if data[0]&0x80 != 0 {
			opt.RebuildFraction = 0.05
		}
		ix := New(d, opt)
		var live []int32
		row := make([]float64, d)
		data = data[1:]
		for ops := 0; len(data) > 0 && ops < 64; ops++ {
			op := data[0]
			data = data[1:]
			pick := func(b byte) int32 { return live[int(b)%len(live)] }
			switch kind := op & 3; {
			case kind == 0:
				if len(data) < d {
					return
				}
				for i := range row {
					row[i] = fuzzGrid[data[i]&7]
				}
				data = data[d:]
			case len(live) == 0:
				continue
			case kind == 1:
				s := pick(op >> 2)
				if !ix.Delete(s) {
					t.Fatalf("delete of live slot %d reported dead", s)
				}
				i := slices.Index(live, s)
				live = slices.Delete(live, i, i+1)
			case kind == 2:
				copy(row, ix.Row(pick(op>>2)))
			default:
				if len(data) == 0 {
					return
				}
				b := data[0]
				data = data[1:]
				copy(row, ix.Row(pick(b>>1)))
				c := int(op>>2) % d
				row[c] = math.Nextafter(row[c], math.Inf(int(b&1)*2-1))
			}
			if op&3 != 1 {
				s, _ := ix.Insert(row)
				live = append(live, s)
			}
			ix.Validate()
			want, cnt := bruteBand(ix, live, k)
			if got := sortedSkyline(ix); !slices.Equal(got, want) {
				t.Fatalf("op %d (k=%d d=%d): band %v, oracle %v", ops, k, d, got, want)
			}
			for _, s := range want {
				if c := ix.DominatorCount(s); c != cnt[s] {
					t.Fatalf("op %d (k=%d d=%d): slot %d count %d, oracle %d", ops, k, d, s, c, cnt[s])
				}
			}
		}
	})
}

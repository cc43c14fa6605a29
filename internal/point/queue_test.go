package point

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestQueueLayoutsAgree holds the three copies of a β-queue to one
// another where its scan runs scan8: the dense view-space rows, and the
// column-major and row-major copies by source column that Offer writes
// along with them. After pass 1's loop (queueRun's) over 3 000 rows of
// an 8-column source, on the identity and on two drop-only views, at
// budgets 1 and 3, and again on a queue reused from the view before,
// view column k of a filled slot s is vec[cols[k]*8+s] and
// vec[64+s*8+cols[k]], bit for bit, and every dropped column, and every
// column of an empty slot, is NaN in both.
func TestQueueLayoutsAgree(t *testing.T) {
	if !HasAVX512BW() {
		t.Skip("no AVX512F+BW and POPCNT with OS-saved ZMM state on this CPU: the queue keeps no vector copies")
	}
	defer SetVectorBodies(SetVectorBodies(true))
	rng := rand.New(rand.NewSource(61))
	src := nearRows(rng, 3000, 8)
	drop := func(cols ...int) []PrefOp {
		ops := make([]PrefOp, 8)
		for _, c := range cols {
			ops[c] = PrefDrop
		}
		return ops
	}
	var qu Queue
	var buf [MaxDims]float64
	for _, budget := range []int{1, 3} {
		for _, ops := range [][]PrefOp{drop(1, 4, 7), nil, drop(3, 4, 5, 6, 7)} {
			at := fmt.Sprintf("budget %d ops=%v", budget, ops)
			var v View
			v.Reset(src, 3000, 8, ops)
			for n := 0; n <= 3000; n += 1500 {
				qu.Reset(&v, 8)
				if qu.src == nil {
					t.Fatalf("%s: the queue does not run scan8", at)
				}
				for i := 0; ; i++ {
					var row []float64
					if i, row = qu.Scan(i, n, budget, buf[:], new(uint64)); i == n {
						break
					}
					qu.Offer(L1(row), row)
				}
				for s := 0; s < 8; s++ {
					var want [8]float64
					for c := range want {
						want[c] = math.NaN()
					}
					if s < qu.Len() {
						_, row := qu.Slot(s)
						for k, c := range qu.cols {
							want[c] = row[k]
						}
					}
					for c, x := range want {
						if col, row := qu.vec[c*8+s], qu.vec[64+s*8+c]; !sameFloat(col, x) || !sameFloat(row, x) {
							t.Fatalf("%s n=%d: slot %d column %d is %v column-major and %v row-major, want %v", at, n, s, c, col, row, x)
						}
					}
				}
			}
		}
	}
}

// sameFloat reports whether x and y are the same float64, bit for bit.
func sameFloat(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

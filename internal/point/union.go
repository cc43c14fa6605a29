package point

import "math"

// Union is the pre-filter's pass-2 filter (Section VI-A1): the union of
// the threads' β-queues, pruned to its own k-skyband, in ascending norm
// order. It tests a candidate against the union points whose norm is
// below the candidate's, the paper's footnote-2 cut-off: a point with a
// larger computed norm never dominates the candidate, but one with an
// equal norm can (DESIGN.md §9, "Numeric precondition"), and the filter
// only prunes, so a dominator it misses leaves one more survivor for
// the exact phases; the cut-off also keeps a queue point from testing
// itself.
//
// At d = 8 with the vector bodies on, Reset also lays the union out for
// unionScan8 in chunks of 8 slots (layoutUnion8), and Scan runs it.
type Union struct {
	rows, l1 []float64
	d        int
	u8       []float64 // the union laid out for unionScan8, where Scan runs it
	vec      bool      // Scan runs unionScan8
}

// Reset builds the union over rows, d values each, row-major, and their
// norms l1, which ascend and hold no NaN (Queue.Offer queues none). The
// union aliases both, which must not change while it is in use.
func (u *Union) Reset(rows, l1 []float64, d int) {
	u.rows, u.l1, u.d = rows, l1, d
	if u.vec = vector && d == 8; u.vec {
		u.u8 = layoutUnion8(u.u8, rows, l1)
	}
}

// Scan tests stored candidates, rows (d values each, row-major) with
// their norms l1, row i's at l1[i], in turn and returns the index of
// the first with fewer than budget (≥ 1) dominators among the union
// points whose norm is below its own, or len(l1) when every row has
// budget or more. The result and *dts are those of Count called row by
// row, whichever body runs.
func (u *Union) Scan(rows, l1 []float64, budget int, dts *uint64) int {
	if u.vec {
		return unionScan8(u.u8, rows, l1, budget, dts)
	}
	for i, x := range l1 {
		if u.Count(rows[i*u.d:(i+1)*u.d], x, budget, dts) < budget {
			return i
		}
	}
	return len(l1)
}

// Count counts the union points whose norm is below l1 that dominate
// row, up to budget (≥ 1): a binary search over the ascending norms
// finds them, a prefix of the union, and CountDominatorsInFlatRun tests
// row against it, advancing *dts by its tests. It is the test of one
// candidate the caller loads itself.
func (u *Union) Count(row []float64, l1 float64, budget int, dts *uint64) int {
	a, b := 0, len(u.l1)
	for a < b {
		mid := int(uint(a+b) >> 1)
		if u.l1[mid] < l1 {
			a = mid + 1
		} else {
			b = mid
		}
	}
	return CountDominatorsInFlatRun(u.rows, u.d, 0, a, row, budget, dts)
}

// unionChunk8 is the length of one chunk of a union laid out for
// unionScan8: 8 slots of 8 columns, column-major, then their 8 norms.
const unionChunk8 = 72

// layoutUnion8 lays out a union for unionScan8 in dst, grown as needed,
// and returns it: rows holds the union's points (8 columns each,
// row-major) and l1 their norms, in union order. Union point i is slot
// i%8 of chunk i/8, whose column c is chunk[c*8 : c*8+8] and whose norms
// are chunk[64:72]. The last chunk's unused slots hold NaN coordinates,
// which neither dominate nor count, and +∞ norms, which are below no
// row's, so no row tests them.
func layoutUnion8(dst, rows, l1 []float64) []float64 {
	n := len(l1)
	size := (n + 7) / 8 * unionChunk8
	if cap(dst) < size {
		dst = make([]float64, size)
	}
	dst = dst[:size]
	for i := range (n + 7) / 8 * 8 {
		ch, s := dst[i/8*unionChunk8:(i/8+1)*unionChunk8], i%8
		if i >= n {
			for c := range 8 {
				ch[c*8+s] = math.NaN()
			}
			ch[64+s] = math.Inf(1)
			continue
		}
		for c, x := range rows[i*8 : i*8+8] {
			ch[c*8+s] = x
		}
		ch[64+s] = l1[i]
	}
	return dst
}

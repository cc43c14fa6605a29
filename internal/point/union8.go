package point

import "math"

// unionChunk8 is the length of one chunk of a union laid out for
// UnionScan8: 8 slots of 8 columns, column-major, then their 8 norms.
const unionChunk8 = 72

// LayoutUnion8 lays out the pre-filter's queue union for UnionScan8 in
// dst, grown as needed, and returns it: rows holds the union's points
// (8 columns each, row-major) and l1 their norms, in union order. Union
// point i is slot i%8 of chunk i/8, whose column c is
// chunk[c*8 : c*8+8] and whose norms are chunk[64:72]. The last chunk's
// unused slots hold NaN coordinates, which neither dominate nor count,
// and +∞ norms, which are below no row's, so no row tests them.
func LayoutUnion8(dst, rows, l1 []float64) []float64 {
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

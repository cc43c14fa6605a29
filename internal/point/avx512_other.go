//go:build !amd64

package point

// hasAVX512BW is false off amd64: this package's AVX-512 bodies are
// amd64 assembly only, so the vector bodies stay off (VectorBodies).
var hasAVX512BW = false

// scan8, unionScan8 and probeDir8 have AVX-512 bodies on amd64 only
// (avx512_amd64.go documents them); their entry points take the Go
// bodies here, as the vector bodies are off.
func scan8(q *[128]float64, rows []float64, budget int, dts *uint64) int {
	panic("point: scan8 needs AVX-512")
}

func unionScan8(u []float64, rows []float64, l1 []float64, budget int, dts *uint64) int {
	panic("point: unionScan8 needs AVX-512")
}

func probeDir8(rows *float64, d int, dir, dcodes *uint64, starts *int, np int, masks, codes *uint64, q *float64, flags, qm, qg, h uint64, budget int, dts *uint64) int {
	panic("point: probeDir8 needs AVX-512")
}

// bandSkip8 has an AVX-512 body on amd64 only; the entry points that
// call it take their Go bodies here.
func bandSkip8(words, codes *uint64, l1 *float64, wi, last int, head, tail, flip, keep, neg, qg, cflip, h uint64, qL1 float64, n *uint64) int {
	panic("point: bandSkip8 needs AVX-512")
}

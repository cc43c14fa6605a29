//go:build !amd64

package point

// hasAVX512BW is false off amd64: this package's AVX-512 bodies are
// amd64 assembly only, so the vector bodies stay off (VectorBodies).
var hasAVX512BW = false

// Scan8 has an AVX-512 body on amd64 only (avx512_amd64.go documents
// it); the pre-filter calls it only where VectorBodies reports true.
func Scan8(cols *[64]float64, rows []float64, budget int, dts *uint64) int {
	panic("point: Scan8 needs AVX-512; check VectorBodies first")
}

// UnionScan8 has an AVX-512 body on amd64 only (avx512_amd64.go
// documents it); the pre-filter calls it only where VectorBodies reports
// true.
func UnionScan8(u []float64, rows []float64, l1 []float64, budget int, dts *uint64) int {
	panic("point: UnionScan8 needs AVX-512; check VectorBodies first")
}

// maskedSkip8 and bandSkip8 have AVX-512 bodies on amd64 only; the
// entry points that call them take their Go bodies here.
func maskedSkip8(words, codes *uint64, wi, last int, head, tail, probe, qg, h uint64, n *uint64) int {
	panic("point: maskedSkip8 needs AVX-512")
}

func bandSkip8(words, codes *uint64, l1 *float64, wi, last int, head, tail, flip, keep, neg, qg, cflip, h uint64, qL1 float64, n *uint64) int {
	panic("point: bandSkip8 needs AVX-512")
}

//go:build !amd64

package point

// HasAVX512BW reports whether the CPU can run this package's AVX-512
// bodies: they are amd64 assembly only.
func HasAVX512BW() bool { return false }

// Scan8 has an AVX-512 body on amd64 only (avx512_amd64.go documents
// it); callers take their pure-Go path where HasAVX512BW reports false.
func Scan8(cols *[64]float64, rows []float64, budget int, dts *uint64) int {
	panic("point: Scan8 needs AVX-512; check HasAVX512BW first")
}

// maskedSkip8 has an AVX-512 body on amd64 only; its callers,
// CountDominatorsInFlatRunMasked8 and PackedMasks.NextSubsetCoded8, are
// called only where HasAVX512BW reports true.
func maskedSkip8(words, codes *uint64, wi, last int, head, tail, probe, qg, h uint64, n *uint64) int {
	panic("point: maskedSkip8 needs AVX-512; check HasAVX512BW first")
}

// bandSkip8 has an AVX-512 body on amd64 only; its callers,
// AppendDominatorsMasked8 and AppendDominatedMasked8, are called only
// where HasAVX512BW reports true.
func bandSkip8(words, codes *uint64, l1 *float64, wi, last int, head, tail, flip, keep, neg, qg, cflip, h uint64, qL1 float64, n *uint64) int {
	panic("point: bandSkip8 needs AVX-512; check HasAVX512BW first")
}

//go:build !amd64

package point

// HasScan8 reports whether Scan8 may be called on this CPU: it has an
// amd64 body only.
func HasScan8() bool { return false }

// Scan8 has an AVX-512 body on amd64 only (scan8_amd64.go documents
// it); callers take their pure-Go path where HasScan8 reports false.
func Scan8(cols *[64]float64, rows []float64, budget int, dts *uint64) int {
	panic("point: Scan8 needs AVX-512; check HasScan8 first")
}

package point

import "strings"

// vector is the one switch between the Go bodies of this package's
// kernels and their AVX-512 ones. Each entry point with a vector body —
// CountDominatorsInFlatRunMasked, PackedMasks.NextSubsetCoded,
// AppendDominatorsMasked and AppendDominatedMasked — reads it together
// with its own shape test (8-bit mask lanes, codes present, a non-empty
// span), and the pre-filter reads it before it lays out a queue for
// Scan8. Both bodies make the same decisions and counts, so the switch
// moves time, never a result. It starts on where the CPU has the bodies
// and is only ever changed by tests (SetVectorBodies).
var vector = hasAVX512BW

// HasAVX512BW reports whether the CPU has AVX512F, AVX512BW and POPCNT
// and the OS saves the opmask and ZMM state: whether this package's
// AVX-512 bodies can run at all.
func HasAVX512BW() bool { return hasAVX512BW }

// VectorBodies reports whether the kernels take their AVX-512 bodies
// where the shape fits, and so whether Scan8 may be called.
func VectorBodies() bool { return vector }

// SetVectorBodies turns the AVX-512 bodies on or off and returns the
// previous setting. It is for tests, which flip it between runs to hold
// the two bodies to each other (defer SetVectorBodies(SetVectorBodies(false))
// runs a test on the Go bodies and restores the switch), never during
// one. It cannot turn the bodies on where HasAVX512BW reports false.
func SetVectorBodies(on bool) (was bool) {
	was, vector = vector, on && hasAVX512BW
	return was
}

// avx512Off reports whether a GODEBUG value turns AVX512F or AVX512BW
// off for the Go runtime: cpu.avx512f=off, cpu.avx512bw=off or
// cpu.all=off, read in order as the runtime reads them, so a later
// cpu.avx512f=on (or cpu.all=on) takes back an earlier off. Other
// fields are not this package's to read.
func avx512Off(godebug string) bool {
	f, bw := true, true
	for _, field := range strings.Split(godebug, ",") {
		key, value, ok := strings.Cut(field, "=")
		if !ok || (value != "on" && value != "off") {
			continue
		}
		on := value == "on"
		switch key {
		case "cpu.all":
			f, bw = on, on
		case "cpu.avx512f":
			f = on
		case "cpu.avx512bw":
			bw = on
		}
	}
	return !f || !bw
}

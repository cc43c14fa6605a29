package point

// DominatesFlatCounted reports whether the d-dimensional row at pOff
// strictly dominates the row at qOff, advancing *dts by one. It gives
// the pairwise test the same counting convention as the run kernels
// (CountDominatorsInFlatRun, AppendDominatorsMasked, ...), so call
// sites thread a counter through the kernel instead of booking
// dominance tests by hand next to it. pc and qc are the two rows' code
// words (code.go), and the float test runs only when pc is no larger
// than qc in any lane; a caller without codes passes 0, 0, which passes.
func DominatesFlatCounted(vals []float64, pOff, qOff, d int, pc, qc uint64, dts *uint64) bool {
	*dts++
	h := codeGuards[d]
	return codeLE(pc, qc|h, h) && DominatesFlat(vals, pOff, qOff, d)
}

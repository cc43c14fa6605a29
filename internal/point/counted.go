package point

// DominatesFlatCounted reports whether the d-dimensional row at pOff
// strictly dominates the row at qOff, advancing *dts by one. It gives
// the pairwise test the same counting convention as the run kernels
// (CountDominatorsInFlatRun, AppendDominatorsMasked, ...), so call
// sites thread a counter through the kernel instead of booking
// dominance tests by hand next to it.
func DominatesFlatCounted(vals []float64, pOff, qOff, d int, dts *uint64) bool {
	*dts++
	return DominatesFlat(vals, pOff, qOff, d)
}

package point

import (
	"fmt"
	"math/rand"
	"testing"
)

// forEachBody runs f with the vector bodies off ("go") and, where the
// CPU has them, on ("avx512"), and leaves the switch as it found it. A
// test that holds a kernel entry point to a reference runs it under
// both, so each body meets every guard.
func forEachBody(f func(body string)) {
	defer SetVectorBodies(SetVectorBodies(false))
	f("go")
	if SetVectorBodies(true); VectorBodies() {
		f("avx512")
	}
}

// dispatchRun is everything the four entry points with a vector body
// answer on one input: the masked count at every budget, the band's
// dominators at every budget and its dominated rows, each with its
// advance of *dts, and the directory walk's rows from lo and on from
// every row it finds.
func dispatchRun(rows []float64, d, lo, hi int, q []float64, qL1 float64, l1 []float64, pm *PackedMasks, qm Mask, codes []uint64, qc uint64) string {
	out := ""
	for budget := 1; budget <= 4; budget++ {
		dts := uint64(7)
		c := CountDominatorsInFlatRunMasked(rows, d, lo, hi, q, pm, qm, codes, qc, budget, &dts)
		doms := AppendDominatorsMasked([]int32{-1}, rows, d, lo, hi, q, qL1, l1, pm, qm, codes, qc, budget, &dts)
		out += fmt.Sprintf("budget %d: count %d, dominators %v, %d tests; ", budget, c, doms, dts)
	}
	dts := uint64(7)
	out += fmt.Sprintf("dominated %v", AppendDominatedMasked([]int32{-1}, rows, d, lo, hi, q, qL1, l1, pm, qm, codes, qc, &dts))
	out += fmt.Sprintf(", %d tests; walk", dts)
	for e := pm.NextSubsetCoded(lo, hi, qm, codes, qc, d); ; e = pm.NextSubsetCoded(e+1, hi, qm, codes, qc, d) {
		out += fmt.Sprintf(" %d", e)
		if e >= hi {
			return out
		}
	}
}

// TestVectorDispatch holds each entry point that may take a vector body
// — CountDominatorsInFlatRunMasked, AppendDominatorsMasked,
// AppendDominatedMasked and PackedMasks.NextSubsetCoded — to itself with
// the vector bodies off: the same answers and the same test counts, on
// every shape the switch must tell apart. Only the first shape takes
// the vector step: d = 2–8 with codes. d ≤ 8 with nil codes (the stream
// index before its first pivot) must stay on the Go body, whose
// pre-test it skips — the vector step would read codes[0] — as must
// d = 9–16, whose masks have 16-bit lanes, and an empty span at any
// width.
func TestVectorDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, c := range []struct {
		name         string
		dLo, dHi     int
		nilCodes     bool
		emptySpan    bool
		trialsPerDim int
	}{
		{"coded d<=8", 2, 8, false, false, 200},
		{"nil codes d<=8", 1, 8, true, false, 100},
		{"coded d=9..16", 9, 16, false, false, 50},
		{"empty span", 1, 16, false, true, 20},
	} {
		for d := c.dLo; d <= c.dHi; d++ {
			for trial := 0; trial < c.trialsPerDim; trial++ {
				n := 1 + rng.Intn(40)
				rows, q := randRun(rng, n, d)
				_, pivot := randRun(rng, 0, d)
				pm, l1, qm, qL1 := maskColumn(rows, d, n, q, pivot)
				codes, qc := prefixCodes(rows, d, rng.Intn(n+1), q)
				if c.nilCodes {
					codes, qc = nil, 0
				}
				lo := rng.Intn(n)
				hi := lo + rng.Intn(n-lo+1)
				if c.emptySpan {
					hi = lo
				}
				got := map[string]string{}
				forEachBody(func(body string) {
					got[body] = dispatchRun(rows, d, lo, hi, q, qL1, l1, pm, qm, codes, qc)
				})
				if on, ok := got["avx512"]; ok && on != got["go"] {
					t.Fatalf("%s, d=%d [%d,%d): vector bodies on: %s; off: %s", c.name, d, lo, hi, on, got["go"])
				}
			}
		}
	}
}

// TestVectorBodiesNeedCPU checks that asking for the vector bodies
// where the CPU cannot run them leaves them off.
func TestVectorBodiesNeedCPU(t *testing.T) {
	defer SetVectorBodies(SetVectorBodies(false))
	defer func(has bool) { hasAVX512BW = has }(hasAVX512BW)
	hasAVX512BW = false
	if SetVectorBodies(true); VectorBodies() {
		t.Fatal("SetVectorBodies(true) turned the vector bodies on without AVX-512")
	}
}

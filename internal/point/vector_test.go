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

// dispatchRun is everything the entry points answer on one input: the
// masked count at every budget, the band's dominators at every budget
// and its dominated rows, each with its advance of *dts, and the
// directory walk's rows from lo and on from every row it finds. The
// masked scan and the walk have no vector body: they are the Go probe's
// parts (probeGo), and must not move when the switch does.
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

// probeGo is internal/core's Go probe (skylineStore.countDominators)
// over this package's parts: the directory walk, q's level-2 mask
// against each partition's pivot and the masked scan of the rest. It is
// ProbeDirectory8's reference.
func probeGo(rows []float64, d int, dir *PackedMasks, starts []int, dirCodes []uint64, masks *PackedMasks, codes []uint64, level2 bool, q []float64, qm Mask, qc uint64, budget int, dts *uint64) int {
	c, np := 0, dir.Len()
	for e := dir.NextSubsetCoded(0, np, qm, dirCodes, qc, d); e < np; e = dir.NextSubsetCoded(e+1, np, qm, dirCodes, qc, d) {
		lo, hi := starts[e], starts[e+1]
		m2 := qm
		if level2 {
			*dts++
			pivot := rows[lo*d : (lo+1)*d]
			if m2 = ComputeMask(q, pivot); m2 == FullMask(d) {
				if Equals(pivot, q) {
					continue
				}
				if c++; c >= budget {
					return c
				}
			}
			lo++
		}
		if c += CountDominatorsInFlatRunMasked(rows, d, lo, hi, q, masks, m2, codes, qc, budget-c, dts); c >= budget {
			return c
		}
	}
	return c
}

// probeRun is the probe's answer on rows cut into partitions at cuts,
// each partition's directory mask its first row's and its minimum code
// the lane-wise minimum of its rows': with and without level 2 and the
// minimum-code skip, at every budget, each with its advance of *dts.
// ProbeDirectory8 answers where the vector bodies are on, probeGo
// elsewhere, as internal/core dispatches.
func probeRun(rows []float64, d int, cuts []int, q []float64, pm *PackedMasks, qm Mask, codes []uint64, qc uint64) string {
	var dir PackedMasks
	dir.Reset(d)
	var dirCodes []uint64
	for e := 0; e+1 < len(cuts); e++ {
		dir.Append(pm.At(cuts[e]))
		m := codes[cuts[e]]
		for j := cuts[e] + 1; j < cuts[e+1]; j++ {
			m = CodeMin(m, codes[j], d)
		}
		dirCodes = append(dirCodes, m)
	}
	out := ""
	for _, level2 := range []bool{false, true} {
		for _, dc := range [][]uint64{nil, dirCodes} {
			for budget := 1; budget <= 4; budget++ {
				dts := uint64(7)
				var c int
				if VectorBodies() {
					c = ProbeDirectory8(rows, d, &dir, cuts, dc, pm, codes, level2, q, qm, qc, budget, &dts)
				} else {
					c = probeGo(rows, d, &dir, cuts, dc, pm, codes, level2, q, qm, qc, budget, &dts)
				}
				out += fmt.Sprintf("level2 %v skip %v budget %d: count %d, %d tests; ", level2, dc != nil, budget, c, dts)
			}
		}
	}
	return out
}

// TestVectorDispatch holds each entry point that may take a vector body
// — AppendDominatorsMasked, AppendDominatedMasked and Phase I's probe
// (ProbeDirectory8 against probeGo) — to itself with the vector bodies
// off, and the Go probe's parts, CountDominatorsInFlatRunMasked and
// PackedMasks.NextSubsetCoded, with them: the same answers and the same
// test counts, on every shape the switch must tell apart. Only the
// first shape takes the vector steps: d = 2–8 with codes, where the
// probe also runs, on the rows cut into random partitions. d ≤ 8 with
// nil codes (the stream index before its first pivot) must stay on the
// Go body, whose pre-test it skips — the vector step would read
// codes[0] — as must d = 9–16, whose masks have 16-bit lanes, and an
// empty span at any width.
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
				var cuts []int
				if d <= 8 && !c.nilCodes && !c.emptySpan {
					cuts = []int{0}
					for cuts[len(cuts)-1] < n {
						cuts = append(cuts, min(n, cuts[len(cuts)-1]+1+rng.Intn(12)))
					}
				}
				got := map[string]string{}
				forEachBody(func(body string) {
					got[body] = dispatchRun(rows, d, lo, hi, q, qL1, l1, pm, qm, codes, qc)
					if cuts != nil {
						got[body] += "; probe " + probeRun(rows, d, cuts, q, pm, qm, codes, qc)
					}
				})
				if on, ok := got["avx512"]; ok && on != got["go"] {
					t.Fatalf("%s, d=%d [%d,%d): vector bodies on: %s; off: %s", c.name, d, lo, hi, on, got["go"])
				}
			}
		}
	}
}

// TestHasAVX512BW records which bodies the kernels take in this run —
// CI prints its log line, so a run's path is on record — and checks that
// the switch starts where the CPU and GODEBUG put it.
func TestHasAVX512BW(t *testing.T) {
	t.Logf("HasAVX512BW() = %v", HasAVX512BW())
	if VectorBodies() != HasAVX512BW() {
		t.Fatalf("VectorBodies() = %v at start, HasAVX512BW() = %v", VectorBodies(), HasAVX512BW())
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

// TestAVX512Off reads GODEBUG values as the Go runtime reads its cpu
// options: field by field, a later setting over an earlier one, and
// only "on" and "off" as values.
func TestAVX512Off(t *testing.T) {
	for _, c := range []struct {
		godebug string
		off     bool
	}{
		{"", false},
		{"cpu.avx512f=off", true},
		{"cpu.avx512bw=off", true},
		{"cpu.all=off", true},
		{"gctrace=1,cpu.avx512f=off,madvdontneed=1", true},
		{"cpu.avx512f=off,cpu.avx512f=on", false},
		{"cpu.all=off,cpu.all=on", false},
		{"cpu.all=off,cpu.avx512f=on", true},
		{"cpu.avx512vl=off,cpu.avx2=off", false},
		{"cpu.avx512f=0,cpu.avx512bw", false},
		{"avx512f=off", false},
	} {
		if got := avx512Off(c.godebug); got != c.off {
			t.Errorf("avx512Off(%q) = %v, want %v", c.godebug, got, c.off)
		}
	}
}

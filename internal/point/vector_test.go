package point

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
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
// parts (probeGo), and must not move when the switch does. Without
// codes the masked scan gets code words of 0, which pass every row.
func dispatchRun(rows []float64, d, lo, hi int, q []float64, qL1 float64, l1 []float64, pm *PackedMasks, qm Mask, codes []uint64, qc uint64) string {
	out := ""
	mc := codes
	if mc == nil {
		mc = make([]uint64, len(l1))
	}
	for budget := 1; budget <= 4; budget++ {
		dts := uint64(7)
		c := countMasked(rows, d, lo, hi, q, pm, qm, mc, qc, budget, &dts)
		doms := AppendDominatorsMasked([]int32{-1}, rows, d, lo, hi, q, qL1, l1, pm, qm, codes, qc, budget, &dts)
		out += fmt.Sprintf("budget %d: count %d, dominators %v, %d tests; ", budget, c, doms, dts)
	}
	dts := uint64(7)
	out += fmt.Sprintf("dominated %v", AppendDominatedMasked([]int32{-1}, rows, d, lo, hi, q, qL1, l1, pm, qm, codes, qc, &dts))
	out += fmt.Sprintf(", %d tests; walk", dts)
	for e := pm.nextSubsetCoded(lo, hi, qm, codes, qc, d); ; e = pm.nextSubsetCoded(e+1, hi, qm, codes, qc, d) {
		out += fmt.Sprintf(" %d", e)
		if e >= hi {
			return out
		}
	}
}

// probeRun is ProbeDirectory's answer on rows cut into partitions at
// cuts, each partition's directory mask its first row's and its minimum
// code the lane-wise minimum of its rows': with and without level 2 and
// the minimum-code skip, at every budget, each with its advance of
// *dts.
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
				c := ProbeDirectory(rows, d, &dir, cuts, dc, pm, codes, level2, q, qm, qc, budget, &dts)
				out += fmt.Sprintf("level2 %v skip %v budget %d: count %d, %d tests; ", level2, dc != nil, budget, c, dts)
			}
		}
	}
	return out
}

// queueRun runs pass 1's loop with a queue of beta slots over every row
// of v at budget: each row Scan does not prune is offered to the queue.
// It returns the rows Scan stopped on with the tests it booked, and
// whether the queue ran scan8.
func queueRun(v *View, beta, budget int) (string, bool) {
	var qu Queue
	qu.Reset(v, beta)
	var buf [MaxDims]float64
	dts := uint64(3)
	var stops []int
	for i := 0; ; i++ {
		var row []float64
		if i, row = qu.Scan(i, v.N(), budget, buf[:], &dts); i == v.N() {
			break
		}
		stops = append(stops, i)
		qu.Offer(L1(row), row)
	}
	return fmt.Sprintf("stops %v after %d tests", stops, dts), qu.src != nil
}

// unionRun builds a union over urows and ul1 (d columns) and runs pass
// 2's two tests on the candidates rows with norms l1 at budget: Scan
// from each row it stopped on to the next, and Count of every row. It
// returns their answers with the tests each booked, and whether the
// union ran unionScan8.
func unionRun(urows, ul1, rows, l1 []float64, d, budget int) (string, bool) {
	var u Union
	u.Reset(urows, ul1, d)
	dts := uint64(3)
	var stops, counts []int
	for i := 0; i < len(l1); i++ {
		i += u.Scan(rows[i*d:], l1[i:], budget, &dts)
		stops = append(stops, i)
	}
	scanDTs := dts
	for i, x := range l1 {
		counts = append(counts, u.Count(rows[i*d:(i+1)*d], x, budget, &dts))
	}
	return fmt.Sprintf("stops %v after %d tests, counts %v after %d", stops, scanDTs, counts, dts-scanDTs), u.vec
}

// nearRows returns n rows of d columns close to a shared level each, on
// a grid of 1/16, so rows dominate, tie with and duplicate one another
// and a queue prunes many of them.
func nearRows(rng *rand.Rand, n, d int) []float64 {
	rows := make([]float64, n*d)
	for i := 0; i < n; i++ {
		level := float64(rng.Intn(32)) / 16
		for c := 0; c < d; c++ {
			rows[i*d+c] = level + float64(rng.Intn(4))/16
		}
	}
	return rows
}

// TestVectorDispatch holds each entry point that may take a vector body
// — AppendDominatorsMasked, AppendDominatedMasked, Phase I's probe
// (ProbeDirectory), pass 1's queue scan (Queue.Scan) and pass 2's union
// scan and count (Union.Scan, Union.Count) — to itself with the vector
// bodies off, and the Go probe's parts, countMasked and
// PackedMasks.nextSubsetCoded, with them: the same answers and the same
// test counts, on every shape the switch must tell apart.
//
// The first table's first shape takes the band scans' vector steps: d =
// 2–8 with codes, where the probe also runs, on the rows cut into
// random partitions. d ≤ 8 with nil codes (the stream index before its
// first pivot) must stay on the Go body, whose pre-test it skips — the
// vector step would read codes[0] — as must d = 9–16, whose masks have
// 16-bit lanes and where the probe runs its Go body too, and an empty
// span at any width.
//
// The second table names the body each of the pre-filter's and Phase
// I's entry points takes: the probe its vector body at d = 8 and not at
// d = 9 (probeVec); the queue scan8 at β = 8 on a view with an 8-column
// source (View.Source8) and neither at β = 4 nor on a view that negates
// a column; the union unionScan8 at d = 8 and not at d = 6. Each must
// take it exactly where the switch is on and the shape fits.
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
				if !c.nilCodes && !c.emptySpan {
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

	negate0 := make([]PrefOp, 8)
	negate0[0] = PrefNegate
	src := nearRows(rng, 600, 8)
	for _, c := range []struct {
		name string
		fits bool // the shape the vector body needs
		run  func() (string, bool)
	}{
		{"probe d=8", true, func() (string, bool) { return probeShape(rng, 8), probeVec(8) }},
		{"probe d=9", false, func() (string, bool) { return probeShape(rng, 9), probeVec(9) }},
		{"queue β=8 Source8", true, func() (string, bool) { return queueShape(src, nil, 8) }},
		{"queue β=4 Source8", false, func() (string, bool) { return queueShape(src, nil, 4) }},
		{"queue β=8 negated column", false, func() (string, bool) { return queueShape(src, negate0, 8) }},
		{"queue β=4 negated column", false, func() (string, bool) { return queueShape(src, negate0, 4) }},
		{"union d=8", true, func() (string, bool) { return unionShape(rng, 8) }},
		{"union d=6", false, func() (string, bool) { return unionShape(rng, 6) }},
	} {
		got := map[string]string{}
		state := rng.Int63()
		forEachBody(func(body string) {
			rng.Seed(state) // the same input under both bodies
			var took bool
			got[body], took = c.run()
			if want := body == "avx512" && c.fits; took != want {
				t.Errorf("%s, %s bodies: took the vector body %v, want %v", c.name, body, took, want)
			}
		})
		if on, ok := got["avx512"]; ok && on != got["go"] {
			t.Errorf("%s: vector bodies on: %s; off: %s", c.name, on, got["go"])
		}
	}
}

// probeShape is probeRun on random rows of d columns with codes, masked
// against a random pivot and cut into random partitions.
func probeShape(rng *rand.Rand, d int) string {
	out := ""
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(150)
		rows, q := randRun(rng, n, d)
		_, pivot := randRun(rng, 0, d)
		pm, _, qm, _ := maskColumn(rows, d, n, q, pivot)
		codes, qc := prefixCodes(rows, d, rng.Intn(n+1), q)
		cuts := []int{0}
		for cuts[len(cuts)-1] < n {
			cuts = append(cuts, min(n, cuts[len(cuts)-1]+1+rng.Intn(70)))
		}
		out += probeRun(rows, d, cuts, q, pm, qm, codes, qc)
	}
	return out
}

// queueShape is queueRun over src, 8 columns, through ops at β = beta
// and budgets 1–3.
func queueShape(src []float64, ops []PrefOp, beta int) (string, bool) {
	var v View
	v.Reset(src, len(src)/8, 8, ops)
	out, took := "", false
	for budget := 1; budget <= 3; budget++ {
		o, t := queueRun(&v, beta, budget)
		out, took = out+o+"; ", t
	}
	return out, took
}

// unionShape is unionRun on unions of 1–24 rows of d columns, sorted by
// norm, against 80 candidates at budgets 1–3, every candidate's norm
// its own or one drawn from the union's.
func unionShape(rng *rand.Rand, d int) (string, bool) {
	out, took := "", false
	for trial := 0; trial < 30; trial++ {
		nu := 1 + rng.Intn(24)
		urows := nearRows(rng, nu, d)
		ul1 := make([]float64, nu)
		idx := make([]int, nu)
		for i := range idx {
			idx[i], ul1[i] = i, L1(urows[i*d:(i+1)*d])
		}
		slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(ul1[a], ul1[b]) })
		sorted, sl1 := make([]float64, 0, nu*d), make([]float64, 0, nu)
		for _, i := range idx {
			sorted, sl1 = append(sorted, urows[i*d:(i+1)*d]...), append(sl1, ul1[i])
		}
		rows := nearRows(rng, 80, d)
		l1 := make([]float64, 80)
		for i := range l1 {
			l1[i] = L1(rows[i*d : (i+1)*d])
			if rng.Intn(4) == 0 {
				l1[i] = sl1[rng.Intn(nu)]
			}
		}
		for budget := 1; budget <= 3; budget++ {
			o, t := unionRun(sorted, sl1, rows, l1, d, budget)
			out, took = out+o+"; ", t
		}
	}
	return out, took
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

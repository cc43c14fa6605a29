package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"skybench/internal/dataset"
	"skybench/internal/par"
	"skybench/internal/point"
	"skybench/internal/stats"
)

// The pinned grid: every Phase I code path (M(S) with and without level
// 2, the NoMS scan with neither level 2 nor the code skip, Q-Flow's
// unpartitioned scan, each on a skyline
// store at budget 1 and a band store at budget 3) at every lane width of
// the packed mask vectors (d ≤ 8, ≤ 16, > 16) and every unrolled kernel
// width, on data that exercises few ties, many ties, and large skylines.
// "nocodes" is the paper's Hybrid (HybridOptions.NoCodes), the arm whose
// counts the paper's figures are asserted on; "default" is the shipped
// arm, which skips M(S) partitions on their minimum code word.
var (
	pinnedDims     = []int{3, 4, 6, 8, 12, 20}
	pinnedKs       = []int{1, 3}
	pinnedDists    = []string{"anticorrelated", "independent", "grid"}
	pinnedVariants = []string{"default", "nocodes", "noms", "nolevel2", "qflow"}
	pinnedSeeds    = []int64{1, 2, 3}
)

// -update rewrites the pinned table from the code as it stands:
//
//	go test ./internal/core -run TestHybridCountsPinned -update
//
// A diff in the table is a reviewed change: every moved row is explained
// where the change is described.
var update = flag.Bool("update", false, "rewrite "+pinnedFile)

const (
	pinnedN     = 1500
	pinnedAlpha = 128
	pinnedFile  = "testdata/hybrid_counts_parent.json"
)

// pinnedData generates one input of the grid. "grid" is independent data
// quantized to four levels per dimension: coincident rows, equal L1
// norms and full level-2 masks all occur.
func pinnedData(dist string, d int, seed int64) point.Matrix {
	switch dist {
	case "anticorrelated":
		return dataset.Generate(dataset.Anticorrelated, pinnedN, d, seed)
	case "independent":
		return dataset.Generate(dataset.Independent, pinnedN, d, seed)
	}
	m := dataset.Generate(dataset.Independent, pinnedN, d, seed)
	dataset.Quantize(m, 4)
	return m
}

func pinnedOptions(tm *par.Team, k int, variant string) HybridOptions {
	return HybridOptions{
		Team:     tm,
		Alpha:    pinnedAlpha,
		SkybandK: k,
		NoMS:     variant == "noms",
		NoLevel2: variant == "nolevel2",
		NoCodes:  variant == "nocodes",
	}
}

// pinnedRun is one Hybrid (or, for the "qflow" variant, Q-Flow) run on a
// single-thread team, reduced to the three figures the table pins: dominance
// tests, Phase I survivors, and an FNV-1a hash of the result in
// confirmation order.
func pinnedRun(c *Context, tm *par.Team, m point.Matrix, k int, variant string) [3]uint64 {
	var st stats.Stats
	var idx []int
	if variant == "qflow" {
		idx = c.QFlow(m.View(), QFlowOptions{Team: tm, Alpha: pinnedAlpha, SkybandK: k, Stats: &st})
	} else {
		opt := pinnedOptions(tm, k, variant)
		opt.Stats = &st
		idx = c.Hybrid(m.View(), opt)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, i := range idx {
		for s := range b {
			b[s] = byte(uint64(i) >> (8 * s))
		}
		h.Write(b[:])
	}
	return [3]uint64{st.DominanceTests, uint64(st.Cost.Phase1Survivors), h.Sum64()}
}

func pinnedKey(dist string, d, k int, variant string, seed int64) string {
	return fmt.Sprintf("%s/d%d/k%d/%s/seed%d", dist, d, k, variant, seed)
}

func loadPinned(t *testing.T) map[string][3]uint64 {
	t.Helper()
	raw, err := os.ReadFile(pinnedFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][3]uint64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestHybridCountsPinned is the guard on "the saving is per visit, not
// fewer tests". Over the whole grid it checks, probe by probe, that
// Phase I's word-at-a-time filters select exactly the rows the scalar
// per-row references (msstruct_test.go) select, in the same order — same
// answer, same dominance-test advance — against the store a real run
// built; and that a single-threaded run's dominance tests, Phase I
// survivors and result order are the ones the table pins
// (testdata/hybrid_counts_parent.json, recorded with this file's
// pinnedRun; -update re-records it). A Q-Flow run
// leaves no pivot to mask the probes with, so the "qflow" rows skip the
// probe check. At d ≤ 8 Phase I's directory walk and level-2 scans take
// the vector bodies where the CPU has them (point.VectorBodies), so the
// grid runs with them on and again forced off, and both runs must match
// the one table.
func TestHybridCountsPinned(t *testing.T) {
	want := loadPinned(t)
	defer point.SetVectorBodies(point.VectorBodies())
	for _, vec := range []bool{true, false} {
		if vec && !point.HasAVX512BW() {
			t.Log("no AVX512F+BW and POPCNT with OS-saved ZMM state: only the Go body runs")
			continue
		}
		point.SetVectorBodies(vec)
		got, checked := pinnedGrid(t, want, vec)
		if *update {
			writePinned(t, got)
			return
		}
		if checked != len(want) {
			t.Errorf("vector body %v: checked %d configurations, table holds %d", vec, checked, len(want))
		}
	}
}

// godebugChild marks a run of this test binary started by
// TestHybridCountsPinnedGodebug.
const godebugChild = "SKYBENCH_GODEBUG_CHILD"

// TestHybridCountsPinnedGodebug re-runs this test binary under each
// GODEBUG option with which the Go runtime turns AVX-512 off —
// cpu.avx512f=off, cpu.avx512bw=off and cpu.all=off — where the package
// must keep the vector bodies off (TestVectorBodiesOffUnderGodebug, in
// the child), and under the first also TestHybridCountsPinned, whose
// table must hold unchanged on the path such a run takes.
func TestHybridCountsPinnedGodebug(t *testing.T) {
	if os.Getenv(godebugChild) != "" {
		t.Skip("a child run")
	}
	if testing.Short() {
		t.Skip("re-runs the pinned grid; CI runs it under GODEBUG=cpu.avx512f=off itself")
	}
	for i, opt := range []string{"cpu.avx512f=off", "cpu.avx512bw=off", "cpu.all=off"} {
		tests := []string{"TestVectorBodiesOffUnderGodebug"}
		if i == 0 {
			tests = append(tests, "TestHybridCountsPinned")
		}
		cmd := exec.Command(os.Args[0], "-test.run=^("+strings.Join(tests, "|")+")$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), "GODEBUG="+opt, godebugChild+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GODEBUG=%s: %v\n%s", opt, err, out)
		}
		for _, name := range tests {
			if !strings.Contains(string(out), "--- PASS: "+name+" ") {
				t.Fatalf("GODEBUG=%s: %s did not pass:\n%s", opt, name, out)
			}
		}
	}
}

// TestVectorBodiesOffUnderGodebug runs in TestHybridCountsPinnedGodebug's
// children only: point reports no AVX-512, its vector bodies are off,
// and the test-only switch cannot turn them on.
func TestVectorBodiesOffUnderGodebug(t *testing.T) {
	if os.Getenv(godebugChild) == "" {
		t.Skip("runs as a child of TestHybridCountsPinnedGodebug")
	}
	defer point.SetVectorBodies(point.SetVectorBodies(true))
	if point.HasAVX512BW() || point.VectorBodies() {
		t.Fatalf("GODEBUG=%s: HasAVX512BW %v, VectorBodies %v after asking for them; want both false",
			os.Getenv("GODEBUG"), point.HasAVX512BW(), point.VectorBodies())
	}
}

// pinnedGrid runs the whole grid, checks every row against want and the
// probes of each first seed, and returns the rows it ran and how many it
// checked.
func pinnedGrid(t *testing.T, want map[string][3]uint64, vec bool) (map[string][3]uint64, int) {
	got := make(map[string][3]uint64, len(want))
	c := NewContext()
	tm := lease(t, 1)
	checked := 0
	for _, dist := range pinnedDists {
		for _, d := range pinnedDims {
			for _, seed := range pinnedSeeds {
				m := pinnedData(dist, d, seed)
				for _, k := range pinnedKs {
					for _, variant := range pinnedVariants {
						key := pinnedKey(dist, d, k, variant, seed)
						got[key] = pinnedRun(c, tm, m, k, variant)
						if *update {
							continue
						}
						w, ok := want[key]
						if !ok {
							t.Fatalf("%s: no pinned entry", key)
						}
						if got[key] != w {
							t.Errorf("%s, vector body %v: (DTs, Phase I survivors, order hash) = %v, parent recorded %v", key, vec, got[key], w)
						}
						checked++
						if seed == pinnedSeeds[0] && variant != "qflow" {
							checkProbes(t, key, c, m, k, variant != "nolevel2" && variant != "noms")
						}
					}
				}
			}
		}
	}
	return got, checked
}

// writePinned writes the table one row a line, keys sorted.
func writePinned(t *testing.T, rows map[string][3]uint64) {
	t.Helper()
	var b strings.Builder
	b.WriteString("{\n")
	keys := slices.Sorted(maps.Keys(rows))
	for i, key := range keys {
		r := rows[key]
		fmt.Fprintf(&b, " %q: [%d, %d, %d]", key, r[0], r[1], r[2])
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	if err := os.WriteFile(pinnedFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkProbes probes the store the latest run on c left behind with
// every input row, coded by the run's quantizer, at the run's budget k
// and level 2 setting, and again with level 2 off, against the boolean
// scalar reference for a skyline store and the counting one for a band
// store.
func checkProbes(t *testing.T, key string, c *Context, m point.Matrix, k int, level2 bool) {
	t.Helper()
	s := &c.sky
	for i := 0; i < m.N(); i++ {
		q := m.Row(i)
		qm := point.ComputeMask(q, c.pv)
		qc := c.quant.Code(q)
		var got, ref [2]int
		var gotDTs, refDTs [2]uint64
		for v, l2 := range []bool{level2, false} {
			got[v] = s.countDominators(q, qc, qm, l2, k, &gotDTs[v])
			if k == 1 {
				ref[v] = b2i(s.refDominatedHybrid(q, qc, qm, l2, &refDTs[v]))
			} else {
				ref[v] = s.refCountDominators(q, qc, qm, l2, k, &refDTs[v])
			}
		}
		if got != ref || gotDTs != refDTs {
			t.Fatalf("%s probe %d: (run's level 2, no level 2) answers %v after %v tests, scalar reference %v after %v",
				key, i, got, gotDTs, ref, refDTs)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

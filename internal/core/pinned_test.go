package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
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
// probe check.
func TestHybridCountsPinned(t *testing.T) {
	want := loadPinned(t)
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
							t.Errorf("%s: (DTs, Phase I survivors, order hash) = %v, parent recorded %v", key, got[key], w)
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
	if *update {
		writePinned(t, got)
		return
	}
	if checked != len(want) {
		t.Errorf("checked %d configurations, table holds %d", checked, len(want))
	}
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

package stream

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"testing"

	"skybench/internal/dataset"
	"skybench/internal/point"
)

// -update rewrites the pinned table from the code as it stands:
//
//	go test ./internal/stream -run TestIndexCountsPinned -update
//
// A diff in the table is a reviewed change: every moved cell is
// explained where the change is described.
var update = flag.Bool("update", false, "rewrite "+countsFile)

const (
	countsFile  = "testdata/stream_counts_parent.json"
	countsOps   = 3000
	countsChurn = 0.35
	// countsRebuild is low enough that a rebuild fires on every row of
	// the grid.
	countsRebuild = 0.25
)

// The pinned grid: few and many equal norms (the quantized rows), small
// and large bands, the skyline and the 3-skyband, at an unrolled kernel
// width each side of the packed masks' 4- and 8-bit lanes.
var (
	countsDists = []string{"independent", "anticorrelated", "quantized"}
	countsDims  = []int{4, 8}
	countsKs    = []int{1, 3}
	countsSeeds = []int64{1, 2}
)

// countsRow is what one trace leaves behind: the work done (dominance
// tests), the lifetime counters, the membership events, and an FNV-1a
// hash of the final band as (slot, dominator count) pairs in ascending
// slot order.
type countsRow struct {
	DTs           uint64 `json:"dts"`
	Resurrections uint64 `json:"resurrections"`
	Rebuilds      uint64 `json:"rebuilds"`
	Entered       uint64 `json:"entered"`
	Left          uint64 `json:"left"`
	Band          uint64 `json:"band_fnv"`
}

// countsTrace drives one seeded insert/delete trace through an Index
// and returns its row.
func countsTrace(dist string, d, k int, seed int64) countsRow {
	gen := dataset.Independent
	if dist == "anticorrelated" {
		gen = dataset.Anticorrelated
	}
	m := dataset.Generate(gen, countsOps, d, seed)
	if dist == "quantized" {
		dataset.Quantize(m, 4)
	}
	var row countsRow
	ix := New(d, Options{
		K:               k,
		RebuildFraction: countsRebuild,
		OnEnter:         func(int32) { row.Entered++ },
		OnLeave:         func(int32) { row.Left++ },
	})
	rng := rand.New(rand.NewSource(seed + 1))
	var live []int32
	next := 0
	for op := 0; op < countsOps; op++ {
		if len(live) > 0 && rng.Float64() < countsChurn {
			i := rng.Intn(len(live))
			ix.Delete(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			slot, _ := ix.Insert(m.Row(next))
			next++
			live = append(live, slot)
		}
	}
	st := ix.Stats()
	row.DTs, row.Resurrections, row.Rebuilds = st.DominanceTests, st.Resurrections, st.Rebuilds
	h := fnv.New64a()
	slots, _ := ix.BandRanks()
	var b [8]byte
	for _, s := range slots {
		v := uint64(uint32(s))<<32 | uint64(uint32(ix.DominatorCount(s)))
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	row.Band = h.Sum64()
	return row
}

// TestIndexCountsPinned pins, per configuration of the grid, the work a
// seeded trace costs the index and what it leaves behind. A change that
// should not alter behaviour leaves every column byte-identical; one
// that should only save work moves the dts column alone. At d ≤ 8 the
// band probes take the vector bodies where the CPU has them
// (point.VectorBodies), so the grid runs with them on and again forced off,
// and both runs must match the one table.
func TestIndexCountsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned stream counts skipped under -short")
	}
	defer point.SetVectorBodies(point.VectorBodies())
	for _, vec := range []bool{true, false} {
		if vec && !point.HasAVX512BW() {
			t.Log("no AVX512F+BW and POPCNT with OS-saved ZMM state: only the Go bodies run")
			continue
		}
		point.SetVectorBodies(vec)
		got := countsGrid(t)
		if *update {
			raw, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(countsFile, append(raw, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		raw, err := os.ReadFile(countsFile)
		if err != nil {
			t.Fatal(err)
		}
		var want map[string]countsRow
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Errorf("vector bodies %v: table holds %d configurations, grid has %d", vec, len(want), len(got))
		}
		for key, g := range got {
			if w, ok := want[key]; !ok {
				t.Errorf("%s: no pinned entry", key)
			} else if g != w {
				t.Errorf("%s, vector bodies %v: got %+v, pinned %+v", key, vec, g, w)
			}
		}
	}
}

// countsGrid runs every trace of the grid and returns its rows by key.
func countsGrid(t *testing.T) map[string]countsRow {
	got := make(map[string]countsRow)
	for _, dist := range countsDists {
		for _, d := range countsDims {
			for _, k := range countsKs {
				for _, seed := range countsSeeds {
					key := fmt.Sprintf("%s/d%d/k%d/seed%d", dist, d, k, seed)
					got[key] = countsTrace(dist, d, k, seed)
					if got[key].Rebuilds == 0 {
						t.Errorf("%s: no rebuild fired", key)
					}
				}
			}
		}
	}
	return got
}

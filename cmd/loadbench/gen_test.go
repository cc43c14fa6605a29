package main

import (
	"testing"

	"skybench"
)

// TestGeneratorsArePinned pins what -seed 1 means: a change to a
// generator changes every later number of the benchmark, so it must
// show up here first.
func TestGeneratorsArePinned(t *testing.T) {
	const d = 8
	for dist, want := range map[string]uint64{
		correlated:     0xc872810d12aac7d,
		independent:    0x4f49842c348ec32d,
		anticorrelated: 0xdcf74bfa595252ec,
	} {
		if got := fnvFloats(genRows(dist, 1024, d, 1)); got != want {
			t.Errorf("first 1024 %s rows of seed 1: checksum %#x, want %#x", dist, got, want)
		}
	}
	if got, want := fnvTrace(genTrace(5000, 512, 1)), uint64(0x778331e398bb79d); got != want {
		t.Errorf("first 1024 trace ops of seed 1: checksum %#x, want %#x", got, want)
	}
}

func TestGeneratorsFollowTheSeed(t *testing.T) {
	a, b, c := genRows(anticorrelated, 256, 8, 7), genRows(anticorrelated, 256, 8, 7), genRows(anticorrelated, 256, 8, 8)
	if fnvFloats(a) != fnvFloats(b) {
		t.Error("the same seed gave different rows")
	}
	if fnvFloats(a) == fnvFloats(c) {
		t.Error("two seeds gave the same rows")
	}
	for _, v := range a {
		if v < 0 || v > 1 {
			t.Fatalf("row value %v outside [0,1]", v)
		}
	}
	// A longer run of the same seed starts with the shorter one.
	if fnvFloats(genRows(correlated, 512, 8, 7)[:256*8]) != fnvFloats(genRows(correlated, 256, 8, 7)) {
		t.Error("rows of a seed depend on how many are generated")
	}
}

func TestTraceKeepsTheLiveSet(t *testing.T) {
	const n0, pairs = 100, 1000
	live := map[int32]bool{}
	for i := int32(0); i < n0; i++ {
		live[i] = true
	}
	for i, op := range genTrace(n0, pairs, 3) {
		if op.del != (i%2 == 1) {
			t.Fatalf("op %d: inserts and deletes must alternate", i)
		}
		if op.del {
			if !live[op.ord] {
				t.Fatalf("op %d deletes ordinal %d, which is not live", i, op.ord)
			}
			delete(live, op.ord)
		} else {
			if op.ord != int32(n0+i/2) {
				t.Fatalf("op %d inserts ordinal %d, want %d", i, op.ord, n0+i/2)
			}
			live[op.ord] = true
		}
	}
	if len(live) != n0 {
		t.Errorf("live set ends at %d rows, want %d", len(live), n0)
	}
}

func TestShapes(t *testing.T) {
	const d = 6
	cold, hot := genShapes(d, 1)
	if len(cold) != 16 || len(hot) != 8 {
		t.Fatalf("%d cold and %d hot shapes, want 16 and 8", len(cold), len(hot))
	}
	active := func(s shape) int {
		n := 0
		for _, p := range s.prefs {
			if p != skybench.Ignore {
				n++
			}
		}
		return n
	}
	seen := map[string]bool{}
	perActive := map[int]int{}
	for i, s := range cold {
		if seen[s.key()] {
			t.Errorf("cold shape %d repeats", i)
		}
		seen[s.key()] = true
		if a := active(s); a < 3 || a > 5 {
			t.Errorf("cold shape %d has %d active dimensions, want 3 to 5", i, a)
		}
		switch {
		case i < 12:
			perActive[active(s)]++
			if s.algo != "" || s.k != 0 {
				t.Errorf("cold shape %d should be a plain hybrid skyline", i)
			}
		case i < 14:
			if s.algo != "qflow" {
				t.Errorf("cold shape %d should run qflow", i)
			}
		default:
			if s.k != 3 || s.top != 100 {
				t.Errorf("cold shape %d should be a 3-skyband with top 100", i)
			}
		}
	}
	for a, want := range map[int]int{3: 2, 4: 8, 5: 2} {
		if perActive[a] != want {
			t.Errorf("%d skyline shapes with %d active dimensions, want %d", perActive[a], a, want)
		}
	}
	for i, s := range hot {
		if seen[s.key()] {
			t.Errorf("hot shape %d repeats", i)
		}
		seen[s.key()] = true
		if active(s) != d || s.k != 0 || s.algo != "" {
			t.Errorf("hot shape %d should be a full-space hybrid skyline", i)
		}
	}
	again, _ := genShapes(d, 1)
	other, _ := genShapes(d, 2)
	same := true
	for i := range cold {
		if cold[i].key() != again[i].key() {
			t.Fatal("the same seed gave different shapes")
		}
		same = same && cold[i].key() == other[i].key()
	}
	if same {
		t.Error("two seeds gave the same shapes")
	}
}

package main

import (
	"math"
	"sort"
	"testing"
)

// nearestRank is the definition, written the slow way: the smallest
// value with at least p percent of the sample at or below it.
func nearestRank(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, v := range s {
		atOrBelow := 0
		for _, u := range s {
			if u <= v {
				atOrBelow++
			}
		}
		if float64(atOrBelow)*100 >= p*float64(len(s)) {
			return v
		}
	}
	return s[len(s)-1]
}

func TestPercentileIsNearestRank(t *testing.T) {
	for _, n := range []int{1, 2, 10, 99, 100, 256} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i*7919)%n) + 0.5 // a permutation of distinct values
		}
		for _, p := range []float64{2, 25, 50, 75, 90, 95, 99, 100} {
			if got, want := percentile(xs, p), nearestRank(xs, p); got != want {
				t.Errorf("n=%d p=%g: got %g, want %g", n, p, got, want)
			}
		}
		if got, want := percentile(xs, 99), xs[0]; n == 1 && got != want {
			t.Errorf("n=1: p99 = %g, want the only sample %g", got, want)
		}
	}
	if got := percentile([]float64{3, 1, 2, 4, 5, 6, 7, 8, 9, 10}, 99); got != 10 {
		t.Errorf("p99 of ten samples = %g, want the maximum", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: %g, want 0", got)
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {100000, 99}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("n=%d: p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestMedianRate(t *testing.T) {
	// Four rounds at 10 ops/s and one stalled round: total/total would
	// say 5.6 ops/s, the median of rounds says 10.
	ops := []float64{10, 10, 10, 10, 10}
	secs := []float64{1, 1, 1, 1, 5}
	if got := medianRate(ops, secs, 1); got != 10 {
		t.Errorf("one caller: %g, want 10", got)
	}
	if got := medianRate(ops, secs, 2); got != 20 {
		t.Errorf("two callers: %g, want 20", got)
	}
	if got := medianRate(nil, nil, 2); got != 0 {
		t.Errorf("no rounds: %g, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{id: 0, parent: -1, start: 0, end: 100},   // client.query
		{id: 1, parent: 0, start: 200, end: 270},  // collection.run, replayed later
		{id: 2, parent: 1, start: 300, end: 390},  // engine.run, slower than its parent
		{id: 3, parent: -1, start: 400, end: 450}, // unrelated
	}
	for id, want := range map[int32]int64{0: 30, 1: -20, 2: 90, 3: 50} {
		if got := selfNs(spans, id); got != want {
			t.Errorf("span %d: self time %d, want %d", id, got, want)
		}
	}
}

func TestDrift(t *testing.T) {
	steady := []float64{5, 5.1, 4.9, 5, 5.05, 4.95, 5, 5.1}
	if frac, warn := drift(steady); warn || math.Abs(frac) > 0.02 {
		t.Errorf("steady probe: drift %g, warn %v", frac, warn)
	}
	moved := []float64{5, 5, 5, 5, 5.5, 5.5, 5.5, 5.5}
	if frac, warn := drift(moved); !warn || math.Abs(frac-0.1) > 1e-9 {
		t.Errorf("probe 10%% slower in the second half: drift %g, warn %v", frac, warn)
	}
	if _, warn := drift([]float64{5, 9}); warn {
		t.Error("two probes are too few to warn about")
	}
}

func TestNormalisation(t *testing.T) {
	h := &host{nproc: 2}
	// Probes: [narrow, wide]. The quiet spin is 4; around both pieces
	// the wide probe ran at 8, so a thread team took twice its quiet
	// time and elastic work one and a half times.
	h.probes = [][2]float64{{4, 4}, {4, 8}, {4, 8}, {4, 8}}
	h.pieces = []piece{
		{team: true, before: 1, after: 2, ns: 200},
		{team: false, before: 2, after: 3, ns: 90},
	}
	q := h.quiet()
	if q != 4 {
		t.Fatalf("quiet = %g, want 4", q)
	}
	if got := 200 * h.factor(0, q); got != 100 {
		t.Errorf("team piece: %g ns at the quiet host, want 100", got)
	}
	if got := 90 * h.factor(1, q); got != 60 {
		t.Errorf("elastic piece: %g ns at the quiet host, want 60", got)
	}
}

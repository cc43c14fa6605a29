package skybench

import (
	"math/rand"
	"testing"
	"time"
)

// refPercentile is the nearest-rank definition stated independently of
// the implementation: the smallest sample at rank ceil(p·n/100).
func refPercentile(sorted []int64, p int) int64 {
	n := len(sorted)
	rank := (n*p + 99) / 100 // ceil(p·n/100)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// TestCostPercentileNearestRank pins the nearest-rank indexing of the
// window percentiles over the wn table from the issue: the old
// floor-rank form s[(wn-1)·p/100] under-reported P99 for every window
// under 100 samples (wn=10 indexed the 9th-smallest of 10 instead of
// the maximum).
func TestCostPercentileNearestRank(t *testing.T) {
	for _, wn := range []int{1, 2, 10, 99, 100, 256} {
		var tr costTracker
		// Latencies 1..wn ns, recorded in shuffled order so the test
		// exercises the sort, not insertion order.
		perm := rand.New(rand.NewSource(int64(wn))).Perm(wn)
		for _, p := range perm {
			tr.record(Hybrid, time.Duration(p+1), 0)
		}
		sorted := make([]int64, wn)
		for i := range sorted {
			sorted[i] = int64(i + 1)
		}
		rows := tr.stats()
		if len(rows) != 1 {
			t.Fatalf("wn=%d: %d rows, want 1", wn, len(rows))
		}
		if got, want := int64(rows[0].P50Latency), refPercentile(sorted, 50); got != want {
			t.Errorf("wn=%d: P50 = %d, want %d", wn, got, want)
		}
		if got, want := int64(rows[0].P99Latency), refPercentile(sorted, 99); got != want {
			t.Errorf("wn=%d: P99 = %d, want %d", wn, got, want)
		}
		// The headline case of the bug: any window under 100 samples must
		// report the true maximum as P99.
		if wn < 100 {
			if got := int64(rows[0].P99Latency); got != int64(wn) {
				t.Errorf("wn=%d: P99 = %d, want the window maximum %d", wn, got, wn)
			}
		}
	}
}

// TestCostWindowRollsOver: the latency percentiles cover only the last
// costWindow runs, while the count and the means keep the whole history.
func TestCostWindowRollsOver(t *testing.T) {
	var tr costTracker
	for i := 0; i < costWindow; i++ {
		tr.record(QFlow, time.Millisecond, 1000)
	}
	for i := 0; i < costWindow; i++ {
		tr.record(QFlow, 3*time.Millisecond, 0)
	}
	rows := tr.stats()
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	row := rows[0]
	if row.P50Latency != 3*time.Millisecond || row.P99Latency != 3*time.Millisecond {
		t.Errorf("p50/p99 = %v/%v after the window rolled over, want 3ms", row.P50Latency, row.P99Latency)
	}
	if row.MeanLatency != 2*time.Millisecond {
		t.Errorf("lifetime mean latency = %v, want 2ms", row.MeanLatency)
	}
	if row.MeanDominanceTests != 500 {
		t.Errorf("lifetime mean = %v, want 500", row.MeanDominanceTests)
	}
	if row.Count != uint64(2*costWindow) {
		t.Errorf("lifetime count = %d, want %d", row.Count, 2*costWindow)
	}
}

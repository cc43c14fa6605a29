package skybench

import (
	"sort"
	"sync"
	"time"
)

// costWindow is the number of recent latency samples each (collection,
// algorithm) pair retains for the percentile estimates. A fixed ring
// keeps recording O(1) and allocation-free after the first sample.
const costWindow = 256

// AlgorithmCost is one collection's rolling cost statistics for one
// algorithm: how often it ran, how long it took, and how much work it
// did. It is exposed through CollectionStats.Costs, which `skyctl info`
// prints.
type AlgorithmCost struct {
	// Algorithm is the algorithm's CLI name.
	Algorithm string `json:"algorithm"`
	// Count is the number of executed (non-cache-hit) runs recorded.
	Count uint64 `json:"count"`
	// MeanLatency is the mean wall-clock time over all recorded runs.
	MeanLatency time.Duration `json:"meanLatencyNs"`
	// P50Latency and P99Latency are nearest-rank percentile estimates
	// over the last costWindow runs.
	P50Latency time.Duration `json:"p50LatencyNs"`
	P99Latency time.Duration `json:"p99LatencyNs"`
	// MeanDominanceTests is the lifetime mean dominance-test count per
	// run — the machine-independent cost signal.
	MeanDominanceTests float64 `json:"meanDominanceTests"`
}

// costTracker accumulates per-algorithm execution costs for one
// collection. Recording happens on every executed query (cache hits
// record nothing — they did no work); reading sorts and copies under
// the lock, which only Stats() does.
type costTracker struct {
	mu    sync.Mutex
	algos map[Algorithm]*algoCost
}

type algoCost struct {
	count    uint64
	totalNs  int64
	totalDTs uint64
	window   [costWindow]int64 // latency ring, nanoseconds
	wn       int               // filled length
	wi       int               // next write position
}

// record books one executed run.
func (t *costTracker) record(a Algorithm, elapsed time.Duration, dts uint64) {
	t.mu.Lock()
	c := t.algos[a]
	if c == nil {
		if t.algos == nil {
			t.algos = make(map[Algorithm]*algoCost)
		}
		c = &algoCost{}
		t.algos[a] = c
	}
	c.count++
	c.totalNs += int64(elapsed)
	c.totalDTs += dts
	c.window[c.wi] = int64(elapsed)
	c.wi = (c.wi + 1) % costWindow
	if c.wn < costWindow {
		c.wn++
	}
	t.mu.Unlock()
}

// stats snapshots the tracker as AlgorithmCost rows sorted by algorithm
// name. Percentiles come from the retained window (nearest-rank).
func (t *costTracker) stats() []AlgorithmCost {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.algos) == 0 {
		return nil
	}
	out := make([]AlgorithmCost, 0, len(t.algos))
	var scratch [costWindow]int64
	for a, c := range t.algos {
		s := scratch[:c.wn]
		copy(s, c.window[:c.wn])
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		row := AlgorithmCost{
			Algorithm:          a.String(),
			Count:              c.count,
			MeanLatency:        time.Duration(c.totalNs / int64(c.count)),
			MeanDominanceTests: float64(c.totalDTs) / float64(c.count),
		}
		if c.wn > 0 {
			row.P50Latency = time.Duration(s[percentileIndex(c.wn, 50)])
			row.P99Latency = time.Duration(s[percentileIndex(c.wn, 99)])
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Algorithm < out[j].Algorithm })
	return out
}

// percentileIndex is the zero-based nearest-rank index of the p-th
// percentile in a sorted sample of n elements: ceil(p·n/100)−1, clamped
// to the sample. The previous floor-rank form, s[(n−1)·p/100],
// under-reported the tail for any window under 100 samples (n=10, p=99
// indexed the 9th-smallest of 10 instead of the maximum).
func percentileIndex(n, p int) int {
	idx := (n*p+99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	return idx
}

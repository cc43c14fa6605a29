package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile of xs, the value at
// rank ceil(p/100·n) of the sorted sample (the rule costs.go uses). It
// sorts a copy. An empty sample gives 0.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(n, p)-1]
}

// rank is the nearest rank of the p-th percentile among n samples,
// from 1 to n. p·n is formed first: it is exact for whole p, where
// p/100·n is not.
func rank(n int, p float64) int {
	return max(1, min(int(math.Ceil(p*float64(n)/100)), n))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// supportedTail is the highest of the 99th, 95th, 90th and 75th
// percentiles that has at least ten of n samples beyond it, or 50 when
// none has: a tail read from fewer samples is one or two outliers.
func supportedTail(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// medianRate is callers × the median over rounds of ops/seconds. A
// median of rounds, not total/total, so a few stalled rounds do not
// move it.
func medianRate(ops, seconds []float64, callers int) float64 {
	rates := make([]float64, 0, len(ops))
	for i := range ops {
		if seconds[i] > 0 {
			rates = append(rates, ops[i]/seconds[i])
		}
	}
	return float64(callers) * median(rates)
}

// selfNs is the duration of span id minus the durations of the spans
// that name it as their parent. The cost ladder replays each rung on
// its own, so children are subtracted by duration, not by overlap, and
// the result is negative when the rung below is the slower one.
func selfNs(spans []span, id int32) int64 {
	self := spans[id].end - spans[id].start
	for i := range spans {
		if spans[i].parent == id {
			self -= spans[i].end - spans[i].start
		}
	}
	return self
}

// driftLimit is the within-run drift of the host probe above which a
// run prints a warning.
const driftLimit = 0.05

// drift compares the median of the second half of the probe times with
// the median of the first half: how far the host moved during the run.
func drift(refs []float64) (frac float64, warn bool) {
	if len(refs) < 4 {
		return 0, false
	}
	h := len(refs) / 2
	frac = median(refs[h:])/median(refs[:h]) - 1
	return frac, math.Abs(frac) > driftLimit
}

package prefilter

import (
	"container/heap"
	"testing"

	"skybench/internal/dataset"
	"skybench/internal/par"
	"skybench/internal/point"
	"skybench/internal/stats"
	"skybench/internal/verify"
)

// maxHeap is a max-heap over point indices keyed by L1 norm, so the root
// is the *largest*-norm point in the queue and cheap to replace.
type maxHeap struct {
	idx []int
	l1  []float64
}

func (h *maxHeap) Len() int           { return len(h.idx) }
func (h *maxHeap) Less(i, j int) bool { return h.l1[h.idx[i]] > h.l1[h.idx[j]] }
func (h *maxHeap) Swap(i, j int)      { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *maxHeap) Push(x interface{}) { h.idx = append(h.idx, x.(int)) }
func (h *maxHeap) Pop() interface{} {
	old := h.idx
	n := len(old)
	x := old[n-1]
	h.idx = old[:n-1]
	return x
}

// Filter is the reference the Runner is tested against: the paper's
// two-pass pre-filter written the plain way — a staged matrix, a per-row
// L1 array, a per-row pruned bitmap, container/heap queues, every queue
// point tested in pass 2. It removes easily-dominated points and returns
// the surviving indices in their original order. l1 must hold the L1 norm
// of every row. beta ≤ 0 selects DefaultBeta. dts, when non-nil,
// accumulates dominance tests per thread.
func Filter(m point.Matrix, l1 []float64, beta, threads int, dts *stats.DTCounters) []int {
	n := m.N()
	if n == 0 {
		return nil
	}
	if beta <= 0 {
		beta = DefaultBeta
	}
	if threads <= 0 {
		threads = par.DefaultThreads()
	}

	pool := par.NewPool(threads)
	defer pool.Close()
	team := pool.Lease(threads)

	pruned := make([]bool, n)
	queues := make([][]int, threads)

	// Pass 1: per-thread β-queues of smallest-L1 points; points that do
	// not enter a queue are tested against that thread's queue.
	team.ForRanges(n, func(tid, lo, hi int) {
		h := &maxHeap{l1: l1}
		var localDTs uint64
		for i := lo; i < hi; i++ {
			if h.Len() < beta {
				heap.Push(h, i)
				continue
			}
			top := h.idx[0]
			if l1[i] < l1[top] {
				// i replaces the queue's largest point; the evicted point
				// is still tested against the updated queue below via the
				// second pass (it remains unpruned here).
				h.idx[0] = i
				heap.Fix(h, 0)
				continue
			}
			p := m.Row(i)
			for _, q := range h.idx {
				localDTs++
				if point.Dominates(m.Row(q), p) {
					pruned[i] = true
					break
				}
			}
		}
		queues[tid] = h.idx
		if dts != nil {
			dts.Inc(tid, localDTs)
		}
	})

	// Pass 2: every surviving point is tested against all queues.
	team.ForRanges(n, func(tid, lo, hi int) {
		var localDTs uint64
		for i := lo; i < hi; i++ {
			if pruned[i] {
				continue
			}
			p := m.Row(i)
		scan:
			for _, q := range queues {
				for _, j := range q {
					if j == i {
						continue
					}
					localDTs++
					if point.Dominates(m.Row(j), p) {
						pruned[i] = true
						break scan
					}
				}
			}
		}
		if dts != nil {
			dts.Inc(tid, localDTs)
		}
	})

	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !pruned[i] {
			out = append(out, i)
		}
	}
	return out
}

func l1s(m point.Matrix) []float64 {
	out := make([]float64, m.N())
	for i := range out {
		out[i] = point.L1(m.Row(i))
	}
	return out
}

// The fundamental safety property: the pre-filter must never remove a
// skyline point, for any distribution and thread count.
func TestFilterPreservesSkyline(t *testing.T) {
	for _, dist := range dataset.AllDistributions {
		for _, threads := range []int{1, 2, 4} {
			m := dataset.Generate(dist, 800, 5, 3)
			surv := Filter(m, l1s(m), 0, threads, nil)
			kept := make(map[int]bool, len(surv))
			for _, i := range surv {
				kept[i] = true
			}
			for _, s := range verify.BruteForce(m) {
				if !kept[s] {
					t.Fatalf("%v t=%d: skyline point %d was pruned", dist, threads, s)
				}
			}
		}
	}
}

// On correlated data the filter should actually prune a large share of
// the input — that is its entire purpose.
func TestFilterPrunesCorrelatedData(t *testing.T) {
	m := dataset.Generate(dataset.Correlated, 2000, 4, 9)
	surv := Filter(m, l1s(m), 0, 2, nil)
	if len(surv) > m.N()/2 {
		t.Errorf("filter kept %d of %d correlated points; expected heavy pruning", len(surv), m.N())
	}
}

func TestFilterKeepsOrder(t *testing.T) {
	m := dataset.Generate(dataset.Independent, 500, 4, 5)
	surv := Filter(m, l1s(m), 0, 3, nil)
	for i := 1; i < len(surv); i++ {
		if surv[i] <= surv[i-1] {
			t.Fatal("survivor indices not in ascending input order")
		}
	}
}

func TestFilterEmptyAndTiny(t *testing.T) {
	if got := Filter(point.Matrix{}, nil, 0, 2, nil); got != nil {
		t.Errorf("empty input: %v", got)
	}
	m := point.FromRows([][]float64{{1, 1}})
	if got := Filter(m, l1s(m), 0, 2, nil); len(got) != 1 {
		t.Errorf("single point: %v", got)
	}
}

func TestFilterDuplicatesSurvive(t *testing.T) {
	m := point.FromRows([][]float64{
		{0, 0}, {0, 0}, {0, 0}, // coincident minimal points
		{5, 5}, // dominated
	})
	surv := Filter(m, l1s(m), 2, 1, nil)
	kept := map[int]bool{}
	for _, i := range surv {
		kept[i] = true
	}
	if !kept[0] || !kept[1] || !kept[2] {
		t.Fatalf("coincident minimal points pruned: %v", surv)
	}
	if kept[3] {
		t.Fatalf("dominated point survived: %v", surv)
	}
}

func TestFilterCountsDTs(t *testing.T) {
	m := dataset.Generate(dataset.Independent, 300, 4, 5)
	dts := stats.NewDTCounters(2)
	Filter(m, l1s(m), 0, 2, dts)
	if dts.Sum() == 0 {
		t.Error("expected nonzero dominance tests")
	}
}

func TestFilterBetaVariants(t *testing.T) {
	m := dataset.Generate(dataset.Correlated, 1000, 6, 11)
	norms := l1s(m)
	for _, beta := range []int{1, 4, 8, 32} {
		surv := Filter(m, norms, beta, 2, nil)
		kept := make(map[int]bool, len(surv))
		for _, i := range surv {
			kept[i] = true
		}
		for _, s := range verify.BruteForce(m) {
			if !kept[s] {
				t.Fatalf("beta=%d: skyline point %d pruned", beta, s)
			}
		}
	}
}

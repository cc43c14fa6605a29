// Package psfs implements PSFS (Im & Park, Inf. Syst. 2011), the
// parallel Sort-Filter-Skyline variant the paper describes as "a weaker
// version of our Q-Flow ... introduced as a naive baseline"
// (Section III).
//
// Like Q-Flow, PSFS sorts by a monotone score and maintains a global
// skyline; unlike Q-Flow it processes only one tiny batch of t points at
// a time (one per thread) with a sequential resolution step after each
// batch, so synchronization costs are paid every t points instead of
// every α, and there is no compression machinery. It exists in this
// suite to show why the α-block design matters.
package psfs

import (
	"sort"

	"skybench/internal/par"
	"skybench/internal/point"
)

// Skyline computes SKY(m) with threads workers and returns original row
// indices in L1-confirmation order.
func Skyline(m point.Matrix, threads int) []int {
	idx, _ := SkylineDT(m, threads)
	return idx
}

// SkylineDT is Skyline with a dominance-test count.
func SkylineDT(m point.Matrix, threads int) ([]int, uint64) {
	n := m.N()
	if n == 0 {
		return nil, 0
	}
	if threads <= 0 {
		threads = par.DefaultThreads()
	}
	d := m.D()
	flat := m.Flat()
	l1 := make([]float64, n)
	m.L1All(l1)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return l1[order[a]] < l1[order[b]] })

	pool := par.NewPool(threads)
	defer pool.Close()
	var dts uint64
	dominated := make([]bool, threads)
	localDTs := make([]uint64, threads)
	sky := make([]int, 0, 64)

	for lo := 0; lo < n; lo += threads {
		hi := lo + threads
		if hi > n {
			hi = n
		}
		batch := order[lo:hi]
		// Parallel: each batch point against the confirmed skyline.
		pool.ForRanges(len(batch), func(_, blo, bhi int) {
			for k := blo; k < bhi; k++ {
				i := batch[k]
				dominated[k] = false
				var local uint64
				for _, j := range sky {
					if l1[j] == l1[i] {
						continue
					}
					local++
					if point.DominatesFlat(flat, j*d, i*d, d) {
						dominated[k] = true
						break
					}
				}
				localDTs[k] = local
			}
		})
		// Sequential: resolve in-batch dominance and append survivors.
		for k, i := range batch {
			dts += localDTs[k]
			if dominated[k] {
				continue
			}
			skip := false
			for _, j := range batch[:k] {
				if l1[j] == l1[i] {
					continue
				}
				dts++
				if point.DominatesFlat(flat, j*d, i*d, d) {
					skip = true
					break
				}
			}
			if !skip {
				sky = append(sky, i)
			}
		}
	}
	return sky, dts
}

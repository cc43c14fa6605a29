package core

import (
	"slices"
	"sync/atomic"
)

// Parallel three-key sort (Section VI-A3). The seed implementation used a
// sequential sort.Slice over (level, mask, L1) — the single-threaded
// initialization bottleneck the paper's Figure 7 phase breakdown calls
// out. Here the compound (level, mask) key is sorted with a parallel
// stable LSD radix sort (per-thread histograms, static ranges, exclusive
// scatter slots), and the order inside each equal-key run is restored
// with per-run quicksort/insertion sorts fanned out over the team. An
// unpartitioned (Q-Flow) run keys every row by the order-preserving bit
// transform of its L1 norm instead, so its equal-key runs are the rows
// whose norms tie. Both arms sort their runs with one comparator,
// sortIdxByOrder's (L1, coordinates) order.

// radixW is the digit width per LSD pass of a key wider than radixOne
// bits. 11 bits keeps the per-thread histograms (threads × 2048 ints)
// small enough that the sequential prefix sum stays negligible next to
// the scatter passes. A key of at most radixOne bits — the compound
// (level, mask) key up to d = 8, d + bits.Len(d) = 12 bits there — is
// sorted in one pass of a keyBits-wide digit (at most 4 096 buckets a
// thread): an 11-bit digit would leave a second full histogram and
// scatter pass for one bit at d = 8.
const (
	radixW   = 11
	radixOne = 12
)

// storeFlag marks a block point dominated. Atomic because Phase II
// readers (the run kernels' skip loads) race with it by design.
func storeFlag(f *uint32) { atomic.StoreUint32(f, 1) }

// radixSortIdx sorts the identity permutation of [0, n) stably by
// c.keys[i] restricted to keyBits, using one parallel scatter pass when
// keyBits ≤ radixOne and ceil(keyBits/radixW) otherwise. It returns the
// sorted permutation, which aliases either c.idx or c.idxT.
//
// Cancellation safety: a canceled fan-out leaves its output buffer with
// stale values from a previous run, which downstream code indexes with —
// so each pass checks the flag before consuming the previous fan-out's
// output and the function only ever returns a buffer that holds a
// complete, valid permutation of [0, n). Callers must still check
// canceled() before trusting the *order* of the result.
func (c *Context) radixSortIdx(n, keyBits int) []int {
	c.idx = grow(c.idx, n)
	c.idxT = grow(c.idxT, n)
	src, dst := c.idx, c.idxT
	for i := range src {
		src[i] = i
	}
	t := c.tEff
	if t > n {
		t = n
	}
	c.rt = t
	w := radixW
	if keyBits <= radixOne {
		w = max(keyBits, 1)
	}
	buckets := 1 << w
	c.rbits = uint(w)
	c.hist = grow(c.hist, t*buckets)
	passes := (keyBits + w - 1) / w
	for p := 0; p < passes; p++ {
		c.rsrc, c.rdst = src, dst
		c.rshift = uint(p * w)
		c.forRanges(n, c.histBody)
		// A canceled histogram fan-out leaves stale counts whose prefix
		// sums would scatter out of range; src still holds a valid
		// permutation, so hand it back untouched.
		if c.canceled() {
			return src
		}
		// Exclusive prefix over (digit-major, thread-minor) so each
		// thread scatters its static range into exclusive slots.
		sum := 0
		hist := c.hist
		for b := 0; b < buckets; b++ {
			for tid := 0; tid < t; tid++ {
				v := hist[tid*buckets+b]
				hist[tid*buckets+b] = sum
				sum += v
			}
		}
		c.forRanges(n, c.scatBody)
		// A partially-skipped scatter leaves dst incomplete; src is the
		// last fully-written permutation.
		if c.canceled() {
			return src
		}
		src, dst = dst, src
	}
	return src
}

func (c *Context) runHist(tid, lo, hi int) {
	buckets := 1 << c.rbits
	hist := c.hist[tid*buckets : (tid+1)*buckets]
	clear(hist)
	keys, src := c.keys, c.rsrc
	shift, digit := c.rshift, uint64(buckets-1)
	for i := lo; i < hi; i++ {
		hist[(keys[src[i]]>>shift)&digit]++
	}
}

func (c *Context) runScatter(tid, lo, hi int) {
	buckets := 1 << c.rbits
	hist := c.hist[tid*buckets : (tid+1)*buckets]
	keys, src, dst := c.keys, c.rsrc, c.rdst
	shift, digit := c.rshift, uint64(buckets-1)
	for i := lo; i < hi; i++ {
		v := src[i]
		b := (keys[v] >> shift) & digit
		dst[hist[b]] = v
		hist[b]++
	}
}

// sortRuns sorts each run of equal radix keys into sortIdxByOrder's
// (L1, coordinates) order, in parallel over the runs. Correctness of
// every scan that tests only preceding rows depends on this order: it is
// a linear extension of dominance (DESIGN.md §9, "Numeric
// precondition"), so within a partition every dominator of a row sorts
// before it, whatever its computed norm.
func (c *Context) sortRuns(idx []int) {
	keys := c.keys
	runs := c.runs[:0]
	start := 0
	for i := 1; i <= len(idx); i++ {
		if i == len(idx) || keys[idx[i]] != keys[idx[start]] {
			if i-start > 1 {
				runs = append(runs, start, i)
			}
			start = i
		}
	}
	c.runs = runs
	c.rsrc = idx
	// Runs differ in length by orders of magnitude, so they are claimed,
	// not dealt: eight chunks a worker evens them out, and no chunk is
	// larger than 1024 runs.
	nr := len(runs) / 2
	chunk := min(max(nr/(8*c.tEff), 1), 1024)
	c.team.ForChunks(c.tEff, nr, chunk, c.cancel, c.runBody)
}

func (c *Context) runSortRuns(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		sortIdxByOrder(c.rsrc[c.runs[2*i]:c.runs[2*i+1]], c.wl1, c.work, c.d)
	}
}

// sortIdxByOrder sorts idx into the working set's dominance order:
// ascending computed L1 norm (l1), ties broken by comparing the row-major
// rows (d columns) lexicographically. That is a linear extension of
// dominance: a dominator's computed norm is no larger than its victim's
// (rounded addition is monotone), and on a tie it is smaller at the
// first coordinate where the two rows differ. The norms are sorted with
// inline compares; only a run of tied norms calls out, to sort on the
// coordinates.
func sortIdxByOrder(idx []int, l1, rows []float64, d int) {
	sortIdxByFloat(idx, l1)
	for lo := 0; lo < len(idx); {
		hi := lo + 1
		for hi < len(idx) && l1[idx[hi]] == l1[idx[lo]] {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(idx[lo:hi], func(a, b int) int {
				return slices.Compare(rows[a*d:(a+1)*d], rows[b*d:(b+1)*d])
			})
		}
		lo = hi
	}
}

// sortIdxByFloat sorts idx ascending by key[idx[i]]: iterative quicksort
// with median-of-three pivots and insertion sort below a small cutoff.
// Allocation-free (the work stack lives on the goroutine stack).
func sortIdxByFloat(idx []int, key []float64) {
	var stack [64][2]int
	top := 0
	stack[0] = [2]int{0, len(idx)}
	for top >= 0 {
		a, b := stack[top][0], stack[top][1]
		top--
		for b-a > 16 {
			mid := int(uint(a+b) >> 1)
			// Median-of-three into mid.
			if key[idx[mid]] < key[idx[a]] {
				idx[mid], idx[a] = idx[a], idx[mid]
			}
			if key[idx[b-1]] < key[idx[mid]] {
				idx[b-1], idx[mid] = idx[mid], idx[b-1]
				if key[idx[mid]] < key[idx[a]] {
					idx[mid], idx[a] = idx[a], idx[mid]
				}
			}
			p := key[idx[mid]]
			i, j := a, b-1
			for i <= j {
				for key[idx[i]] < p {
					i++
				}
				for key[idx[j]] > p {
					j--
				}
				if i <= j {
					idx[i], idx[j] = idx[j], idx[i]
					i++
					j--
				}
			}
			// Recurse into the smaller side, loop on the larger.
			if j-a < b-i {
				if i < b {
					top++
					stack[top] = [2]int{i, b}
				}
				b = j + 1
			} else {
				if a < j+1 {
					top++
					stack[top] = [2]int{a, j + 1}
				}
				a = i
			}
		}
		// Insertion sort the remainder.
		for i := a + 1; i < b; i++ {
			v := idx[i]
			kv := key[v]
			j := i - 1
			for j >= a && key[idx[j]] > kv {
				idx[j+1] = idx[j]
				j--
			}
			idx[j+1] = v
		}
	}
}

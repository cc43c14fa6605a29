package par

import (
	"sync/atomic"
	"testing"
)

// chunkSize is the chunk the core phases claim; the grids below straddle
// it (15, 16, 17) on purpose.
const chunkSize = 16

// newTeam leases the whole of a fresh pool of the given size, closed when
// the test ends.
func newTeam(t testing.TB, threads int) *Team {
	p := NewPool(threads)
	t.Cleanup(p.Close)
	return p.Lease(threads)
}

func TestForCoversAllIndices(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		p := newTeam(t, threads)
		for _, n := range []int{0, 1, 15, 16, 17, 1000} {
			seen := make([]int32, n)
			p.ForChunks(threads, n, chunkSize, nil, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("t=%d n=%d: index %d visited %d times", threads, n, i, c)
				}
			}
		}
	}
}

// TestForChunkedExplicitChunk checks the chunk geometry: every claim
// starts on a chunk boundary and is full-size except the last.
func TestForChunkedExplicitChunk(t *testing.T) {
	p := newTeam(t, 4)
	const n, chunk = 1000, 3
	var sum, calls atomic.Int64
	p.ForChunks(4, n, chunk, nil, func(_, lo, hi int) {
		if lo%chunk != 0 || (hi-lo != chunk && hi != n) {
			t.Errorf("chunk [%d,%d) is not a %d-chunk of [0,%d)", lo, hi, chunk, n)
		}
		calls.Add(1)
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	})
	if sum.Load() != 999*1000/2 || calls.Load() != (n+chunk-1)/chunk {
		t.Fatalf("sum = %d over %d chunks", sum.Load(), calls.Load())
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	p := newTeam(t, 4)
	called := false
	body := func(_, _, _ int) { called = true }
	p.ForChunks(4, 0, chunkSize, nil, body)
	p.ForChunks(4, -5, chunkSize, nil, body)
	p.ForRanges(0, body)
	p.ForRanges(-5, body)
	if called {
		t.Fatal("body called for empty range")
	}
}

// TestForRangesPartition checks what the static shape promises: worker
// tid's range is the tid-th in row order, and the ranges tile [0, n).
func TestForRangesPartition(t *testing.T) {
	for _, threads := range []int{1, 3, 8} {
		p := newTeam(t, threads)
		for _, n := range []int{1, 10, 97} {
			los := make([]int, threads)
			his := make([]int, threads)
			p.ForRanges(n, func(tid, lo, hi int) { los[tid], his[tid] = lo, hi })
			next := 0
			for tid := 0; tid < min(threads, n); tid++ {
				if los[tid] != next || his[tid] <= los[tid] {
					t.Fatalf("t=%d n=%d: worker %d got [%d,%d), want a range starting at %d",
						threads, n, tid, los[tid], his[tid], next)
				}
				next = his[tid]
			}
			if next != n {
				t.Fatalf("t=%d n=%d: ranges end at %d", threads, n, next)
			}
		}
	}
}

func TestForRangesTidsDistinct(t *testing.T) {
	n, threads := 100, 4
	p := newTeam(t, threads)
	seen := make([]int32, threads)
	p.ForRanges(n, func(tid, lo, hi int) { atomic.AddInt32(&seen[tid], 1) })
	for tid, c := range seen {
		if c != 1 {
			t.Fatalf("tid %d used %d times", tid, c)
		}
	}
}

func TestForRangesMoreThreadsThanWork(t *testing.T) {
	p := newTeam(t, 16)
	var count int32
	p.ForRanges(3, func(tid, lo, hi int) { atomic.AddInt32(&count, int32(hi-lo)) })
	if count != 3 {
		t.Fatalf("covered %d items, want 3", count)
	}
}

func TestTeamClamps(t *testing.T) {
	p := newTeam(t, 8)
	for _, tc := range []struct{ t, items, want int }{
		{0, 100, 8}, {-1, 100, 8}, {3, 100, 3}, {12, 100, 8}, {8, 3, 3}, {2, 1, 1},
	} {
		if got := p.clamp(tc.t, tc.items); got != tc.want {
			t.Errorf("clamp(%d, %d) = %d, want %d", tc.t, tc.items, got, tc.want)
		}
	}
}

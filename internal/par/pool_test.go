package par

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolForRangesCoversRange checks that repeated fan-outs over one pool
// partition the index space exactly (every index once, correct tids).
func TestPoolForRangesCoversRange(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 8} {
		p := newTeam(t, threads)
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			seen := make([]int32, n)
			p.ForRanges(n, func(tid, lo, hi int) {
				if tid < 0 || tid >= threads {
					t.Errorf("threads=%d: bad tid %d", threads, tid)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("threads=%d n=%d: index %d visited %d times", threads, n, i, c)
				}
			}
		}
	}
}

// TestPoolForCoversRange checks the claimed shape on one reused pool,
// with the team restricted below the pool's size: every index once, and
// only the team's tids.
func TestPoolForCoversRange(t *testing.T) {
	p := newTeam(t, 4)
	for _, team := range []int{1, 2, 3, 4} {
		for _, n := range []int{0, 1, 13, 500} {
			seen := make([]int32, n)
			p.ForChunks(team, n, 4, nil, func(tid, lo, hi int) {
				if tid < 0 || tid >= team {
					t.Errorf("team=%d: bad tid %d", team, tid)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("team=%d n=%d: index %d visited %d times", team, n, i, c)
				}
			}
		}
	}
}

// TestForChunksStopsWithinOneChunk raises the stop flag from inside the
// first chunk to run: every worker may finish the chunk it holds, none
// may claim another, so at most one chunk per worker runs — at t = 1
// exactly one.
func TestForChunksStopsWithinOneChunk(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		p := newTeam(t, threads)
		var stop atomic.Bool
		var chunks atomic.Int32
		p.ForChunks(threads, 100000, chunkSize, &stop, func(_, lo, hi int) {
			chunks.Add(1)
			stop.Store(true)
		})
		if c := int(chunks.Load()); c < 1 || c > threads {
			t.Errorf("t=%d: %d chunks ran after the stop, want at most one per worker", threads, c)
		}
		// A flag raised before the region starts runs nothing at all.
		chunks.Store(0)
		p.ForChunks(threads, 100000, chunkSize, &stop, func(_, _, _ int) { chunks.Add(1) })
		if chunks.Load() != 0 {
			t.Errorf("t=%d: %d chunks ran in a region that started stopped", threads, chunks.Load())
		}
	}
}

// TestForChunksBusy checks the efficiency counter's arithmetic: busy
// time is summed over workers, so it is positive and cannot exceed
// workers × the region's wall time.
func TestForChunksBusy(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		p := newTeam(t, threads)
		var sink atomic.Int64
		begin := time.Now()
		busy := p.ForChunks(threads, 4096, chunkSize, nil, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				sink.Add(int64(i))
			}
		})
		wall := time.Since(begin)
		if busy <= 0 || busy > time.Duration(threads)*wall {
			t.Errorf("t=%d: busy %v outside (0, %d × %v]", threads, busy, threads, wall)
		}
	}
}

// TestPoolReuse hammers one pool with many regions back to back — the
// reuse pattern Hybrid's per-block fan-outs produce — and validates a sum
// each round. Run with -race this also proves the barrier establishes
// happens-before between regions.
func TestPoolReuse(t *testing.T) {
	p := newTeam(t, 4)
	const n = 257
	data := make([]int, n)
	for round := 0; round < 500; round++ {
		p.ForRanges(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				data[i] = round + i
			}
		})
		// Read on the dispatcher side without synchronization other than
		// the pool barrier.
		sum := 0
		for _, v := range data {
			sum += v
		}
		want := round*n + n*(n-1)/2
		if sum != want {
			t.Fatalf("round %d: sum=%d want %d", round, sum, want)
		}
	}
}

// TestPoolAllocFree asserts the steady-state path of a run — lease a team,
// dispatch a region, release — performs no allocations when the body
// closure is pre-bound (as the core Context does).
func TestPoolAllocFree(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var sink atomic.Int64
	body := func(tid, lo, hi int) { sink.Add(int64(hi - lo)) }
	p.Lease(4).Release() // warm up: the pool's first team
	allocs := testing.AllocsPerRun(100, func() {
		tm := p.Lease(4)
		tm.ForRanges(100, body)
		tm.Release()
	})
	if allocs != 0 {
		t.Errorf("lease + static region + release allocates %.1f per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		tm := p.Lease(4)
		tm.ForChunks(4, 100, chunkSize, nil, body)
		tm.Release()
	})
	if allocs != 0 {
		t.Errorf("lease + claimed region + release allocates %.1f per run, want 0", allocs)
	}
}

func TestStaticRange(t *testing.T) {
	for _, tc := range []struct{ n, t int }{{10, 3}, {7, 7}, {100, 8}, {5, 1}} {
		prev := 0
		for tid := 0; tid < tc.t; tid++ {
			lo, hi := staticRange(tid, tc.n, tc.t)
			if lo != prev {
				t.Fatalf("n=%d t=%d tid=%d: lo=%d want %d", tc.n, tc.t, tid, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d t=%d tid=%d: hi=%d < lo=%d", tc.n, tc.t, tid, hi, lo)
			}
			prev = hi
		}
		if prev != tc.n {
			t.Fatalf("n=%d t=%d: ranges end at %d", tc.n, tc.t, prev)
		}
	}
}

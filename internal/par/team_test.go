package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rendezvous is a two-party meeting point with a deadline: each side
// arrives and waits for the other, failing instead of hanging when the
// other never comes — as it would not if the two teams took turns.
type rendezvous struct {
	arrived [2]chan struct{}
	once    [2]sync.Once
}

func newRendezvous() *rendezvous {
	return &rendezvous{arrived: [2]chan struct{}{make(chan struct{}), make(chan struct{})}}
}

// meet marks side as arrived and reports whether the other side arrived
// within the deadline.
func (r *rendezvous) meet(side int) bool {
	r.once[side].Do(func() { close(r.arrived[side]) })
	select {
	case <-r.arrived[1-side]:
		return true
	case <-time.After(10 * time.Second):
		return false
	}
}

// TestTeamsRunConcurrently leases two teams from one pool and runs a
// region on each at once: every worker of each region waits until the
// other region is running too, so the test passes only if the teams'
// regions overlap. Each region covers its index space exactly once with
// its own tids only.
func TestTeamsRunConcurrently(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	teams := [2]*Team{p.Lease(2), p.Lease(2)}
	for i, tm := range teams {
		if tm.Threads() != 2 {
			t.Fatalf("team %d leased %d threads, want 2", i, tm.Threads())
		}
	}
	const n = 1000
	rv := newRendezvous()
	var wg sync.WaitGroup
	for side, tm := range teams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tm.Release()
			seen := make([]int32, n)
			var met atomic.Bool
			tm.ForChunks(0, n, chunkSize, nil, func(tid, lo, hi int) {
				if tid < 0 || tid >= tm.Threads() {
					t.Errorf("team %d: tid %d outside [0, %d)", side, tid, tm.Threads())
				}
				if !met.Load() {
					if !rv.meet(side) {
						t.Errorf("team %d: the other team's region never ran alongside", side)
					}
					met.Store(true)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			tm.ForRanges(n, func(tid, lo, hi int) {
				if tid < 0 || tid >= tm.Threads() {
					t.Errorf("team %d: static tid %d outside [0, %d)", side, tid, tm.Threads())
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 2 {
					t.Errorf("team %d: index %d visited %d times over two regions, want 2", side, i, c)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTeamPanicStaysOnItsTeam panics in one team's region while another
// team's region is running: only the panicking team's caller sees the
// rethrown panic, and the other team completes that region and its next.
func TestTeamPanicStaysOnItsTeam(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	bad, good := p.Lease(2), p.Lease(2)
	defer bad.Release()
	defer good.Release()

	rv := newRendezvous()
	var wg sync.WaitGroup
	wg.Add(1)
	var covered atomic.Int64
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("the healthy team's caller saw a panic: %v", r)
			}
		}()
		for round := 0; round < 2; round++ {
			good.ForChunks(0, 1000, chunkSize, nil, func(_, lo, hi int) {
				if round == 0 && lo == 0 && !rv.meet(1) {
					t.Error("the panicking team's region never ran alongside")
				}
				covered.Add(int64(hi - lo))
			})
		}
	}()
	wantWorkerPanic(t, "boom-team", func() {
		bad.ForRanges(2, func(tid, _, _ int) {
			if tid == 1 {
				rv.meet(0)
				panic("boom-team")
			}
		})
	})
	wg.Wait()
	if covered.Load() != 2000 {
		t.Fatalf("healthy team covered %d of 2000 indices over two regions", covered.Load())
	}
	// The panicking team itself stays serviceable.
	var n atomic.Int64
	bad.ForRanges(2, func(_, lo, hi int) { n.Add(int64(hi - lo)) })
	if n.Load() != 2 {
		t.Fatalf("panicked team covered %d of 2 indices afterwards", n.Load())
	}
}

// TestPoolCloseWithTeamsOut closes a pool while teams are leased: Close
// returns, a later Release is harmless, and a Lease on the closed pool is
// a team of one that runs inline.
func TestPoolCloseWithTeamsOut(t *testing.T) {
	p := NewPool(4)
	a, b := p.Lease(2), p.Lease(2)
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with teams out")
	}
	a.Release()
	b.Release()
	tm := p.Lease(4)
	if tm.Threads() != 1 {
		t.Fatalf("lease on a closed pool has %d threads, want 1", tm.Threads())
	}
	var n atomic.Int64
	tm.ForRanges(100, func(_, lo, hi int) { n.Add(int64(hi - lo)) })
	if n.Load() != 100 {
		t.Fatalf("inline team covered %d of 100", n.Load())
	}
	tm.Release()
}

// TestLeaseNeverWaits exhausts a pool's workers: the next Lease returns a
// team of one at once, and once a team is released its workers lease
// again. Yield and Rebalance hand a team's workers back and forth the same
// way, and a team never grows past what its Lease asked for.
func TestLeaseNeverWaits(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	all := p.Lease(0)
	if all.Threads() != 4 {
		t.Fatalf("Lease(0) took %d threads, want the pool's 4", all.Threads())
	}
	got := make(chan *Team, 1)
	go func() { got <- p.Lease(3) }()
	var late *Team
	select {
	case late = <-got:
		if late.Threads() != 1 {
			t.Fatalf("lease on an exhausted pool has %d threads, want 1", late.Threads())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Lease waited for workers another team holds")
	}

	// The late team asked for 3: once the workers are free it grows to 3,
	// not to the 4 the pool has.
	all.Release()
	late.Yield()
	late.Rebalance()
	if late.Threads() != 3 {
		t.Fatalf("rebalance on an idle pool grew a Lease(3) team to %d threads, want 3", late.Threads())
	}
	late.Release()

	all = p.Lease(0)
	all.Yield()
	if all.Threads() != 1 {
		t.Fatalf("yielded team has %d threads, want 1", all.Threads())
	}
	other := p.Lease(3)
	if other.Threads() != 2 {
		t.Fatalf("lease beside a yielded team has %d threads, want its share 2", other.Threads())
	}
	all.Rebalance()
	if all.Threads() != 2 {
		t.Fatalf("rebalance beside one other team left %d threads, want its share 2", all.Threads())
	}
	other.Release()
	all.Rebalance()
	if all.Threads() != 4 {
		t.Fatalf("rebalance on an idle pool left %d threads, want 4", all.Threads())
	}
	all.Release()
}

// TestTeamRebalance checks the even split: a team that leased the whole
// pool alone gives back down to its share when others lease, the late
// teams grow into what it gave back, and the last team out regrows to the
// whole pool. Every team keeps covering its regions exactly once.
func TestTeamRebalance(t *testing.T) {
	p := NewPool(6)
	defer p.Close()
	first := p.Lease(0)
	second, third := p.Lease(0), p.Lease(0)
	if first.Threads() != 6 || second.Threads() != 1 || third.Threads() != 1 {
		t.Fatalf("leases on a taken pool: %d, %d, %d threads, want 6, 1, 1",
			first.Threads(), second.Threads(), third.Threads())
	}
	check := func(tm *Team, want int) {
		t.Helper()
		tm.Rebalance()
		if tm.Threads() != want {
			t.Fatalf("rebalanced team has %d threads, want %d", tm.Threads(), want)
		}
		var n atomic.Int64
		tm.ForChunks(0, 1000, chunkSize, nil, func(tid, lo, hi int) {
			if tid >= tm.Threads() {
				t.Errorf("tid %d outside a team of %d", tid, tm.Threads())
			}
			n.Add(int64(hi - lo))
		})
		if n.Load() != 1000 {
			t.Fatalf("team of %d covered %d of 1000", tm.Threads(), n.Load())
		}
	}
	check(first, 2)
	check(second, 2)
	check(third, 2)
	first.Release()
	second.Release()
	check(third, 6)
	third.Release()
}

// BenchmarkRegionWake prices one empty static region (ns/op is ns per
// region) on a team of two —
// the caller plus one parked worker, the whole of a 2-thread pool: the
// wake, the barrier and nothing else. "idle" runs on an otherwise idle
// process; "spinner" runs beside one goroutine spinning on the CPU, the
// position a region's worker is in when another computation is busy.
func BenchmarkRegionWake(b *testing.B) {
	body := func(_, _, _ int) {}
	run := func(b *testing.B) {
		p := NewPool(2)
		defer p.Close()
		tm := p.Lease(2)
		defer tm.Release()
		tm.ForRanges(2, body) // warm up the worker
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tm.ForRanges(2, body)
		}
	}
	b.Run("idle", run)
	b.Run("spinner", func(b *testing.B) {
		var stop atomic.Bool
		spun := make(chan struct{})
		go func() {
			defer close(spun)
			for !stop.Load() {
			}
		}()
		defer func() {
			stop.Store(true)
			<-spun
		}()
		run(b)
	})
}

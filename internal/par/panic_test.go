package par

import (
	"strings"
	"sync/atomic"
	"testing"
)

// wantWorkerPanic runs f expecting it to rethrow a *WorkerPanic whose
// value is val, on the calling goroutine.
func wantWorkerPanic(t *testing.T, val string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		wp, ok := r.(*WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T %v, want *WorkerPanic", r, r)
		}
		if wp.Value != val {
			t.Fatalf("panic value = %v, want %q", wp.Value, val)
		}
		if !strings.Contains(string(wp.Stack), "goroutine") {
			t.Fatalf("WorkerPanic carries no stack: %q", wp.Stack)
		}
	}()
	f()
	t.Fatal("expected rethrown panic")
}

func TestForPropagatesWorkerPanic(t *testing.T) {
	p := newTeam(t, 4)
	wantWorkerPanic(t, "boom-for", func() {
		p.ForChunks(4, 1000, chunkSize, nil, func(_, lo, hi int) {
			if lo <= 617 && 617 < hi {
				panic("boom-for")
			}
		})
	})
}

func TestForRangesPropagatesWorkerPanic(t *testing.T) {
	p := newTeam(t, 4)
	wantWorkerPanic(t, "boom-ranges", func() {
		p.ForRanges(100, func(tid, lo, hi int) {
			if tid == 2 {
				panic("boom-ranges")
			}
		})
	})
}

func TestPoolSurvivesWorkerPanic(t *testing.T) {
	p := newTeam(t, 4)

	wantWorkerPanic(t, "boom-pool-for", func() {
		p.ForChunks(4, 1000, chunkSize, nil, func(_, lo, hi int) {
			if lo <= 421 && 421 < hi {
				panic("boom-pool-for")
			}
		})
	})
	wantWorkerPanic(t, "boom-pool-ranges", func() {
		p.ForRanges(100, func(tid, lo, hi int) {
			if tid == 3 {
				panic("boom-pool-ranges")
			}
		})
	})

	// The pool must stay fully serviceable after contained panics: the
	// panic slot is cleared and the barrier is intact.
	for rep := 0; rep < 3; rep++ {
		var sum atomic.Int64
		p.ForChunks(4, 1000, chunkSize, nil, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				sum.Add(int64(i))
			}
		})
		if sum.Load() != 999*1000/2 {
			t.Fatalf("rep %d: pool miscounted after panic: %d", rep, sum.Load())
		}
		var hitsR atomic.Int64
		p.ForRanges(100, func(tid, lo, hi int) { hitsR.Add(int64(hi - lo)) })
		if hitsR.Load() != 100 {
			t.Fatalf("rep %d: ForRanges covered %d items", rep, hitsR.Load())
		}
	}
}

func TestPoolDispatcherShareCaptured(t *testing.T) {
	// Worker 0 is the dispatching goroutine itself; its panic must take
	// the same contained path so region state is reset under mu.
	p := newTeam(t, 2)
	wantWorkerPanic(t, "boom-self", func() {
		p.ForRanges(2, func(tid, lo, hi int) {
			if tid == 0 {
				panic("boom-self")
			}
		})
	})
	var n atomic.Int64
	p.ForRanges(2, func(tid, lo, hi int) { n.Add(1) })
	if n.Load() != 2 {
		t.Fatalf("pool wedged after dispatcher-share panic: %d regions ran", n.Load())
	}
}

func TestCancelStillWorksAfterPanic(t *testing.T) {
	p := newTeam(t, 4)
	wantWorkerPanic(t, "x", func() { p.ForChunks(4, 100, chunkSize, nil, func(_, _, _ int) { panic("x") }) })
	var stop atomic.Bool
	stop.Store(true)
	ran := false
	p.ForRangesCancel(4, 100, &stop, func(tid, lo, hi int) { ran = true })
	if ran {
		t.Fatal("stop flag ignored after panic recovery")
	}
}

package stream

import (
	"fmt"

	"skybench"
)

// Window is a sliding-window skyline: a SkylineIndex fed through a
// fixed-capacity ring buffer, so Push evicts the oldest point once the
// window is full — the "most recent W updates" workload of streaming
// skyline services.
//
// Push must be called from one goroutine at a time (the ring is not
// internally locked); Snapshot and the other read methods delegate to
// the underlying index and are safe concurrently with the writer. A
// full-window Push is an eviction followed by an insertion — two
// mutations, so a concurrent reader can observe the intermediate
// snapshot in which the oldest point has left and the new one has not
// yet arrived.
type Window struct {
	x     *SkylineIndex
	ring  []ID
	head  int
	count int
}

// NewWindow creates a sliding window holding at most capacity points.
func NewWindow(capacity, d int, cfg Config) (*Window, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("%w: window capacity must be at least 1, got %d", skybench.ErrBadQuery, capacity)
	}
	x, err := New(d, cfg)
	if err != nil {
		return nil, err
	}
	return &Window{x: x, ring: make([]ID, capacity)}, nil
}

// Push inserts a point, evicting the oldest one first when the window is
// full, and returns the new point's ID. The point is validated before
// anything is evicted, so an invalid point leaves the window unchanged,
// and so does a failed eviction (the index's Err, or ErrClosed).
func (w *Window) Push(p []float64) (ID, error) {
	if err := w.x.validatePoint(p); err != nil {
		return 0, err
	}
	if w.count == len(w.ring) {
		if !w.x.Delete(w.ring[w.head]) {
			// The index kept the point (a failed eviction append on a
			// durable window, or a closed index): keep it in the ring
			// too, or it would never be evicted.
			if err := w.x.Err(); err != nil {
				return 0, err
			}
			return 0, fmt.Errorf("%w: stream.Window", skybench.ErrClosed)
		}
		w.head = (w.head + 1) % len(w.ring)
		w.count--
	}
	id, err := w.x.Insert(p)
	if err != nil {
		return 0, err
	}
	w.ring[(w.head+w.count)%len(w.ring)] = id
	w.count++
	return id, nil
}

// Len returns the number of points currently in the window.
func (w *Window) Len() int { return w.count }

// Snapshot returns the window's current skyline; see
// SkylineIndex.Snapshot.
func (w *Window) Snapshot() *Snapshot { return w.x.Snapshot() }

// Close releases the underlying index's resources.
func (w *Window) Close() { w.x.Close() }

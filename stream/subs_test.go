package stream

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOnDeltaDelivery: every registered subscriber sees the same deltas,
// in registration order, and a canceled one sees nothing afterwards.
func TestOnDeltaDelivery(t *testing.T) {
	var keptEvents, subEvents int
	x, err := New(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	x.OnDelta(func(entered, left []Point) { keptEvents++ })

	var order []string
	c1 := x.OnDelta(func(entered, left []Point) {
		order = append(order, "first")
		subEvents++
	})
	c2 := x.OnDelta(func(entered, left []Point) { order = append(order, "second") })

	if _, err := x.Insert([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if keptEvents != 1 || subEvents != 1 {
		t.Fatalf("after insert: kept=%d sub=%d, want 1/1", keptEvents, subEvents)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("delivery order = %v, want [first second]", order)
	}

	c1()
	c1() // cancel is idempotent
	if _, err := x.Insert([]float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	if subEvents != 1 {
		t.Fatal("canceled subscriber still delivered to")
	}
	if keptEvents != 2 || len(order) != 3 {
		t.Fatalf("remaining subscribers starved: kept=%d order=%v", keptEvents, order)
	}
	c2()
}

// TestOnDeltaConcurrent hammers subscribe/unsubscribe from several
// goroutines while another mutates the index — the -race proof that
// registration, cancelation, and delivery are correctly serialized.
func TestOnDeltaConcurrent(t *testing.T) {
	x, err := New(2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()

	var stop atomic.Bool
	var delivered atomic.Uint64

	// Mutator: anti-diagonal points, so every insert changes membership
	// and fires the subscribers.
	var mutator sync.WaitGroup
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		for i := 0; !stop.Load(); i++ {
			if _, err := x.Insert([]float64{float64(i), -float64(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Churners: register, wait for one delivery, cancel — repeatedly and
	// concurrently with each other and the mutator.
	var churn sync.WaitGroup
	for g := 0; g < 4; g++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for round := 0; round < 40; round++ {
				var local atomic.Uint64
				cancel := x.OnDelta(func(entered, left []Point) {
					local.Add(1)
					delivered.Add(1)
					// Contract: the slices are only valid during the call.
					for _, p := range entered {
						_ = p.Values[0]
					}
				})
				for local.Load() == 0 {
					runtime.Gosched()
				}
				cancel()
				cancel() // idempotent under concurrency too
			}
		}()
	}

	churn.Wait()
	stop.Store(true)
	mutator.Wait()
	if delivered.Load() == 0 {
		t.Fatal("no deltas delivered during churn")
	}
}

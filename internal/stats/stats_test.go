package stats

import (
	"testing"
	"time"
)

func TestTimerAttributesPhases(t *testing.T) {
	var s Stats
	tm := StartTimer(&s)
	time.Sleep(2 * time.Millisecond)
	tm.Stop(PhaseInit)
	time.Sleep(1 * time.Millisecond)
	tm.Stop(PhaseOne)
	if s.Phases[PhaseInit] <= 0 || s.Phases[PhaseOne] <= 0 {
		t.Fatalf("phases not recorded: %v", s.Phases)
	}
}

func TestDTCounters(t *testing.T) {
	c := NewDTCounters(4)
	c.Inc(0, 3)
	c.Inc(3, 7)
	if c.Sum() != 10 {
		t.Fatalf("Sum = %d", c.Sum())
	}
	c.Reset()
	if c.Sum() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestDTCountersMinimumOne(t *testing.T) {
	c := NewDTCounters(0)
	c.Inc(0, 1)
	if c.Sum() != 1 {
		t.Fatal("zero-thread counters should still have one slot")
	}
}

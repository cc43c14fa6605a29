package point

import (
	"math"
	"testing"
)

func TestNewMatrixShape(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.N() != 3 || m.D() != 4 {
		t.Fatalf("shape = %d×%d, want 3×4", m.N(), m.D())
	}
	if len(m.Flat()) != 12 {
		t.Fatalf("flat len = %d, want 12", len(m.Flat()))
	}
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative shape")
		}
	}()
	NewMatrix(-1, 2)
}

func TestFromRowsRoundTrip(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	m := FromRows(rows)
	for i, r := range rows {
		for j, v := range r {
			if m.Row(i)[j] != v {
				t.Fatalf("m[%d][%d] = %v, want %v", i, j, m.Row(i)[j], v)
			}
		}
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.N() != 0 {
		t.Fatalf("empty FromRows N = %d", m.N())
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromFlat(t *testing.T) {
	m := FromFlat([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if m.Row(1)[2] != 6 {
		t.Fatalf("Row(1)[2] = %v, want 6", m.Row(1)[2])
	}
}

func TestFromFlatWrongLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong flat length")
		}
	}()
	FromFlat([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIsDeep(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Row(0)[0] = 99
	if m.Row(0)[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestGather(t *testing.T) {
	m := FromRows([][]float64{{0, 0}, {1, 1}, {2, 2}})
	g := m.Gather([]int{2, 0})
	if g.N() != 2 || g.Row(0)[0] != 2 || g.Row(1)[0] != 0 {
		t.Fatalf("Gather wrong: %v", g.Flat())
	}
}

func TestNorms(t *testing.T) {
	p := []float64{3, 1, 2}
	if got := L1(p); got != 6 {
		t.Errorf("L1 = %v, want 6", got)
	}
	if got := MinCoord(p); got != 1 {
		t.Errorf("MinCoord = %v, want 1", got)
	}
	if got := MaxCoord(p); got != 3 {
		t.Errorf("MaxCoord = %v, want 3", got)
	}
	if got := Volume(p); got != 6 {
		t.Errorf("Volume = %v, want 6", got)
	}
}

func TestMinCoordEmpty(t *testing.T) {
	if !math.IsInf(MinCoord(nil), 1) {
		t.Error("MinCoord(nil) should be +Inf")
	}
	if !math.IsInf(MaxCoord(nil), -1) {
		t.Error("MaxCoord(nil) should be -Inf")
	}
}

func TestL1All(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	out := make([]float64, 2)
	m.L1All(out)
	if out[0] != 3 || out[1] != 7 {
		t.Fatalf("L1All = %v, want [3 7]", out)
	}
}

func TestL1AllLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := NewMatrix(2, 2)
	m.L1All(make([]float64, 1))
}

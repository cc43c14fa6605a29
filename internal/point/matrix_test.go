package point

import "testing"

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

func TestNorms(t *testing.T) {
	p := []float64{3, 1, 2}
	if got := L1(p); got != 6 {
		t.Errorf("L1 = %v, want 6", got)
	}
	if got := Volume(p); got != 6 {
		t.Errorf("Volume = %v, want 6", got)
	}
}

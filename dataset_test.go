package skybench_test

import (
	"math"
	"testing"

	"skybench"
)

func TestNewDatasetValidation(t *testing.T) {
	if _, err := skybench.NewDataset([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := skybench.NewDataset([][]float64{{}}); err == nil {
		t.Error("zero-dimensional points accepted")
	}
	wide := make([]float64, 64)
	if _, err := skybench.NewDataset([][]float64{wide}); err == nil {
		t.Error("over-wide points accepted")
	}
	ds, err := skybench.NewDataset(nil)
	if err != nil || ds.N() != 0 {
		t.Errorf("empty input: ds=%v err=%v, want empty dataset", ds, err)
	}
}

func TestNewDatasetCopies(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}}
	ds, err := skybench.NewDataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	rows[0][0] = 99 // must not affect the dataset
	if got := ds.Row(0)[0]; got != 1 {
		t.Errorf("Dataset shares caller storage: Row(0)[0] = %v, want 1", got)
	}
	if ds.N() != 2 || ds.D() != 2 {
		t.Errorf("shape = %d×%d, want 2×2", ds.N(), ds.D())
	}
}

func TestDatasetFromFlat(t *testing.T) {
	flat := []float64{1, 2, 3, 4, 5, 6}
	ds, err := skybench.DatasetFromFlat(flat, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 3 || ds.D() != 2 {
		t.Fatalf("shape = %d×%d, want 3×2", ds.N(), ds.D())
	}
	if r := ds.Row(2); r[0] != 5 || r[1] != 6 {
		t.Errorf("Row(2) = %v, want [5 6]", r)
	}
	if _, err := skybench.DatasetFromFlat(flat, 2, 2); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := skybench.DatasetFromFlat(nil, 1, 0); err == nil {
		t.Error("zero dimensionality accepted")
	}
	if ds, err := skybench.DatasetFromFlat(flat[:0], 0, 2); err != nil || ds.N() != 0 {
		t.Errorf("empty input: ds=%v err=%v, want empty dataset", ds, err)
	}
}

func TestDatasetRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	// A NaN point is never dominated and never dominates (every
	// comparison is false), so admitting one would silently corrupt
	// skylines; both constructors must reject NaN and ±Inf.
	for name, rows := range map[string][][]float64{
		"nan":      {{1, 2}, {nan, 0}},
		"nan-only": {{nan, 1}},
		"plus-inf": {{1, inf}},
		"neg-inf":  {{-inf, 0}, {1, 2}},
	} {
		if _, err := skybench.NewDataset(rows); err == nil {
			t.Errorf("NewDataset accepted %s", name)
		}
	}
	for name, flat := range map[string][]float64{
		"nan":      {1, 2, nan, 0},
		"plus-inf": {inf, 2, 3, 4},
		"neg-inf":  {1, 2, 3, -inf},
	} {
		if _, err := skybench.DatasetFromFlat(flat, 2, 2); err == nil {
			t.Errorf("DatasetFromFlat accepted %s", name)
		}
	}
}

package pivot

import (
	"testing"

	"skybench/internal/dataset"
	"skybench/internal/point"
	"skybench/internal/verify"
)

func l1s(m point.Matrix) []float64 {
	out := make([]float64, m.N())
	for i := range out {
		out[i] = point.L1(m.Row(i))
	}
	return out
}

func TestParseAndString(t *testing.T) {
	for _, s := range AllStrategies {
		got, err := Parse(s.String())
		if err != nil || got != s {
			t.Errorf("Parse(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Error("expected error")
	}
	if Strategy(42).String() != "strategy(42)" {
		t.Error("out-of-range String")
	}
}

func TestSelectShapes(t *testing.T) {
	m := dataset.Generate(dataset.Independent, 400, 5, 1)
	norms := l1s(m)
	for _, s := range AllStrategies {
		v := Select(s, m, norms, 7)
		if len(v) != 5 {
			t.Fatalf("%v: pivot has %d dims", s, len(v))
		}
		for _, x := range v {
			if x < 0 || x > 1 {
				t.Fatalf("%v: pivot coord %v out of data range", s, x)
			}
		}
	}
}

func TestSelectEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Select(Median, point.Matrix{}, nil, 0)
}

// Manhattan, Volume, Random, and Balanced pivots must be actual skyline
// points of the data (the paper relies on this for Manhattan/Volume and
// obtains it probabilistically for Random/Balanced via refinement).
func TestPointPivotsAreSkylinePoints(t *testing.T) {
	m := dataset.Generate(dataset.Anticorrelated, 300, 4, 13)
	norms := l1s(m)
	sky := verify.BruteForce(m)
	inSky := func(v []float64) bool {
		for _, i := range sky {
			if point.Equals(m.Row(i), v) {
				return true
			}
		}
		return false
	}
	for _, s := range []Strategy{Manhattan, Volume, Random, Balanced} {
		v := Select(s, m, norms, 3)
		if !inSky(v) {
			t.Errorf("%v pivot %v is not a skyline point", s, v)
		}
	}
}

// The median pivot should split independent data into reasonably balanced
// halves on every dimension.
func TestMedianBalance(t *testing.T) {
	m := dataset.Generate(dataset.Independent, 2000, 4, 21)
	v := Select(Median, m, l1s(m), 0)
	for j := 0; j < 4; j++ {
		below := 0
		for i := 0; i < m.N(); i++ {
			if m.Row(i)[j] < v[j] {
				below++
			}
		}
		frac := float64(below) / float64(m.N())
		if frac < 0.4 || frac > 0.6 {
			t.Errorf("dim %d: %.2f of points below median pivot", j, frac)
		}
	}
}

func TestManhattanIsMinL1(t *testing.T) {
	m := dataset.Generate(dataset.Independent, 500, 3, 2)
	norms := l1s(m)
	v := Select(Manhattan, m, norms, 0)
	got := point.L1(v)
	for _, n := range norms {
		if n < got {
			t.Fatalf("Manhattan pivot L1=%v but smaller norm %v exists", got, n)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	m := dataset.Generate(dataset.Independent, 500, 3, 2)
	norms := l1s(m)
	a := Select(Random, m, norms, 5)
	b := Select(Random, m, norms, 5)
	if !point.Equals(a, b) {
		t.Error("Random pivot not deterministic for fixed seed")
	}
}

func TestBalancedHandlesConstantDimension(t *testing.T) {
	// A constant dimension must not divide by zero during normalization.
	m := point.FromRows([][]float64{
		{0.5, 1, 0.2}, {0.5, 2, 0.9}, {0.5, 3, 0.1}, {0.5, 0.5, 0.5},
	})
	v := Select(Balanced, m, l1s(m), 0)
	if len(v) != 3 {
		t.Fatal("bad pivot")
	}
}

func TestSelectOnDuplicateHeavyData(t *testing.T) {
	m := dataset.Generate(dataset.Independent, 600, 4, 3)
	dataset.Quantize(m, 4) // heavy duplication
	norms := l1s(m)
	for _, s := range AllStrategies {
		v := Select(s, m, norms, 1)
		if len(v) != 4 {
			t.Fatalf("%v: bad pivot on duplicate data", s)
		}
	}
}

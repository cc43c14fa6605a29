// Package point provides the dense point-matrix substrate shared by all
// skyline algorithms in this repository, together with the dominance-test
// kernels that are their primary operation.
//
// Points live in a flat, row-major []float64 so that a block of points is
// contiguous in memory; the paper's algorithms (notably the compression
// step of Q-Flow, Section V-D) depend on contiguous layouts for locality.
package point

import (
	"fmt"
	"math"
)

// Matrix is a dense n×d collection of points stored row-major. The zero
// value is an empty matrix. Matrix is cheap to copy (it is a slice header
// plus two ints); the underlying values are shared.
type Matrix struct {
	vals []float64
	n, d int
}

// NewMatrix allocates an n×d matrix of zeros.
func NewMatrix(n, d int) Matrix {
	if n < 0 || d < 0 {
		panic(fmt.Sprintf("point: invalid matrix shape %d×%d", n, d))
	}
	return Matrix{vals: make([]float64, n*d), n: n, d: d}
}

// FromRows builds a matrix by copying the given rows. All rows must have
// the same length. An empty input yields an empty matrix.
func FromRows(rows [][]float64) Matrix {
	if len(rows) == 0 {
		return Matrix{}
	}
	d := len(rows[0])
	m := NewMatrix(len(rows), d)
	for i, r := range rows {
		if len(r) != d {
			panic(fmt.Sprintf("point: row %d has %d values, want %d", i, len(r), d))
		}
		copy(m.Row(i), r)
	}
	return m
}

// FromFlat wraps an existing row-major slice without copying. The slice
// length must be exactly n*d.
func FromFlat(vals []float64, n, d int) Matrix {
	if len(vals) != n*d {
		panic(fmt.Sprintf("point: flat slice has %d values, want %d×%d=%d", len(vals), n, d, n*d))
	}
	return Matrix{vals: vals, n: n, d: d}
}

// N returns the number of points.
func (m Matrix) N() int { return m.n }

// D returns the dimensionality.
func (m Matrix) D() int { return m.d }

// Row returns point i as a slice aliasing the matrix storage.
func (m Matrix) Row(i int) []float64 {
	return m.vals[i*m.d : (i+1)*m.d : (i+1)*m.d]
}

// Flat returns the underlying row-major storage (aliased, not copied).
func (m Matrix) Flat() []float64 { return m.vals }

// Finite reports whether v is an ordinary float64 — not NaN and not ±Inf.
// NaN poisons every dominance comparison (all comparisons are false, so a
// NaN point is simultaneously never dominated and never dominating) and
// Inf breaks the L1-norm filters, so validating entry points reject both.
func Finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// L1 returns the Manhattan norm Σᵢ p[i] of a point. The paper uses the L1
// norm as its cheap filter: p ≺ q implies L1(p) < L1(q) (footnote 2).
// That needs exact sums; a computed norm keeps only the weak form,
// L1(p) ≤ L1(q) (DESIGN.md §9, "Numeric precondition").
func L1(p []float64) float64 {
	s := 0.0
	for _, v := range p {
		s += v
	}
	return s
}

// Volume returns Πᵢ p[i], the hyper-volume pivot criterion ([2] in the
// paper's pivot study).
func Volume(p []float64) float64 {
	v := 1.0
	for _, x := range p {
		v *= x
	}
	return v
}

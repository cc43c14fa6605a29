package skybench

import (
	"fmt"

	"skybench/internal/point"
)

// Dataset is a validated, immutable collection of points that an Engine
// can answer many queries over. Validation (consistent dimensionality,
// supported dimension count) happens exactly once, at construction, so a
// serving loop pays nothing per query for it; the values are stored
// row-major in one flat allocation, the layout every hot path in this
// repository consumes directly.
//
// A Dataset is safe for concurrent use by any number of queries on any
// number of Engines. Do not mutate the values after construction:
// NewDataset copies its input and is always safe, DatasetFromFlat adopts
// the caller's slice to stay zero-copy and trusts the caller to leave it
// alone.
type Dataset struct {
	vals []float64
	n, d int
}

// NewDataset validates rows (every point must have the same nonzero
// dimensionality, at most MaxDims) and copies them into a new Dataset.
// An empty input yields an empty Dataset, over which every query returns
// an empty skyline.
func NewDataset(rows [][]float64) (*Dataset, error) {
	if len(rows) == 0 {
		return &Dataset{}, nil
	}
	d, err := validateRows(rows)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, len(rows)*d)
	for i, row := range rows {
		copy(vals[i*d:(i+1)*d], row)
	}
	return &Dataset{vals: vals, n: len(rows), d: d}, nil
}

// validateRows checks a non-empty row-of-slices input (consistent,
// nonzero, supported dimensionality; finite values) and returns its
// dimensionality.
func validateRows(rows [][]float64) (int, error) {
	d := len(rows[0])
	if d == 0 {
		return 0, fmt.Errorf("%w: points must have at least one dimension", ErrBadDataset)
	}
	for i, row := range rows {
		if len(row) != d {
			return 0, fmt.Errorf("%w: point %d has %d dimensions, want %d", ErrBadDataset, i, len(row), d)
		}
		for j, v := range row {
			if !point.Finite(v) {
				return 0, fmt.Errorf("%w: point %d has non-finite value %v on dimension %d", ErrBadDataset, i, v, j)
			}
		}
	}
	if d > point.MaxDims {
		return 0, fmt.Errorf("%w: at most %d dimensions supported, got %d", ErrBadDataset, point.MaxDims, d)
	}
	return d, nil
}

// DatasetFromFlat builds a Dataset around n points of d dimensions
// stored row-major in vals (len(vals) must be n*d) without copying.
//
// Ownership rule (the write-side mirror of the aliasing rule on
// Result.Indices): the Dataset adopts vals — it holds the slice itself,
// not a copy — so from this call on the slice belongs to the Dataset and
// the caller must never write to it again, from any goroutine, for as
// long as the Dataset (or any Result computed over it) is in use.
// Callers that cannot guarantee that should use NewDataset, which
// always copies.
func DatasetFromFlat(vals []float64, n, d int) (*Dataset, error) {
	if n == 0 {
		return &Dataset{}, nil
	}
	if err := validateFlat(vals, n, d); err != nil {
		return nil, err
	}
	return &Dataset{vals: vals, n: n, d: d}, nil
}

// validateFlat checks a non-empty flat row-major input (shape plus
// finite values: NaN poisons dominance tests — every comparison against
// it is false, so a NaN point is never dominated and never dominates —
// and ±Inf breaks the L1-norm filters and the Max-preference negation).
func validateFlat(vals []float64, n, d int) error {
	if d <= 0 {
		return fmt.Errorf("%w: points must have at least one dimension", ErrBadDataset)
	}
	if len(vals) != n*d {
		return fmt.Errorf("%w: flat input has %d values, want n*d = %d", ErrBadDataset, len(vals), n*d)
	}
	if d > point.MaxDims {
		return fmt.Errorf("%w: at most %d dimensions supported, got %d", ErrBadDataset, point.MaxDims, d)
	}
	for i, v := range vals {
		if !point.Finite(v) {
			return fmt.Errorf("%w: point %d has non-finite value %v on dimension %d", ErrBadDataset, i/d, v, i%d)
		}
	}
	return nil
}

// row returns point i as a slice aliasing the Dataset's storage: a view
// that is valid for the life of the Dataset and must never be written,
// since every concurrent query reads the same storage.
func (ds *Dataset) row(i int) []float64 {
	return ds.vals[i*ds.d : (i+1)*ds.d : (i+1)*ds.d]
}

// matrix returns the dataset as the internal matrix type (aliasing, not
// copying).
func (ds *Dataset) matrix() point.Matrix {
	return point.FromFlat(ds.vals, ds.n, ds.d)
}

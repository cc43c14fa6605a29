package point

import (
	"fmt"
	"math"
)

// View is a row-major n×d source seen through a preference transform
// that is realised one row at a time, as the row is loaded, instead of
// in a staged copy of the whole source. The hot paths read their input
// through a View, so a subspace or maximise query costs no pass over
// memory of its own: Load yields exactly the values StagePrefs would
// have written for the row, in the same order, so L1 norms, sort keys
// and dominance tests are bit-identical to a run over the staged copy.
//
// A View is a small value (it shares the source and its column scratch
// with its copies). The zero value is an empty view; Reset re-targets a
// View and reuses its column scratch, so a long-lived View is rebuilt
// per query without allocating.
type View struct {
	src    []float64
	n      int
	stride int      // source dimensionality
	ident  bool     // every column kept as is: Load returns the source row
	cols   []int    // kept source columns, in order
	flip   []uint64 // per kept column: the sign bit if negated (maximise), else 0
}

// View returns the identity view of m.
func (m Matrix) View() View {
	return View{src: m.vals, n: m.n, stride: m.d, ident: true}
}

// Reset points v at the n×d row-major src under ops (one op per source
// dimension; none selects the identity, as does an all-Keep vector).
func (v *View) Reset(src []float64, n, d int, ops []PrefOp) {
	if len(src) != n*d {
		panic(fmt.Sprintf("point: flat slice has %d values, want %d×%d=%d", len(src), n, d, n*d))
	}
	if len(ops) != 0 && len(ops) != d {
		panic(fmt.Sprintf("point: %d preference ops for %d dimensions", len(ops), d))
	}
	v.src, v.n, v.stride = src, n, d
	v.cols, v.flip = v.cols[:0], v.flip[:0]
	v.ident = IdentityOps(ops)
	if v.ident {
		return
	}
	for j, op := range ops {
		switch op {
		case PrefKeep:
			v.cols, v.flip = append(v.cols, j), append(v.flip, 0)
		case PrefNegate:
			v.cols, v.flip = append(v.cols, j), append(v.flip, 1<<63)
		}
	}
}

// N returns the number of rows.
func (v *View) N() int { return v.n }

// D returns the dimensionality of a loaded row.
func (v *View) D() int {
	if v.ident {
		return v.stride
	}
	return len(v.cols)
}

// cols8 lists the columns of an 8-column source in order: the kept
// columns of its identity view.
var cols8 = []int{0, 1, 2, 3, 4, 5, 6, 7}

// Source8 returns the row-major source and the kept source columns, in
// order, when the source has 8 columns and v negates none of them (the
// identity view, or one that only drops columns), and nil, nil for any
// other view. Column k of a loaded row is then source column cols[k]
// as it is. Both are read-only to the caller.
func (v *View) Source8() (src []float64, cols []int) {
	if v.stride != 8 {
		return nil, nil
	}
	if v.ident {
		return v.src, cols8
	}
	for _, f := range v.flip {
		if f != 0 {
			return nil, nil
		}
	}
	return v.src, v.cols
}

// Load returns row i under the view's transform. An identity view
// returns the source row itself (read-only to the caller); any other
// view writes the kept columns, negated where maximised, into buf —
// which must hold D() values, typically a [MaxDims]float64 on the
// caller's stack — and returns that prefix of buf.
func (v *View) Load(i int, buf []float64) []float64 {
	row := v.src[i*v.stride : (i+1)*v.stride : (i+1)*v.stride]
	if v.ident {
		return row
	}
	buf = buf[:len(v.cols)]
	flip := v.flip[:len(buf)]
	for k, c := range v.cols {
		buf[k] = math.Float64frombits(math.Float64bits(row[c]) ^ flip[k])
	}
	return buf
}

// CopyRow writes row i under the view's transform into dst, which must
// hold D() values: Load for callers that want the copy either way.
func (v *View) CopyRow(dst []float64, i int) {
	copy(dst, v.Load(i, dst))
}

package point

import (
	"math"
	"slices"
	"testing"
)

// TestViewReset re-targets one View across transforms of different
// shapes: each must read as a fresh view would, and a warm Reset must
// not allocate (the Engine rebuilds its view on every query).
func TestViewReset(t *testing.T) {
	src := []float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
	}
	var v View
	var buf [MaxDims]float64

	v.Reset(src, 2, 4, []PrefOp{PrefNegate, PrefDrop, PrefKeep, PrefNegate})
	if v.N() != 2 || v.D() != 3 {
		t.Fatalf("subspace view is %d×%d, want 2×3", v.N(), v.D())
	}
	if got := v.Load(1, buf[:]); len(got) != 3 || got[0] != -5 || got[1] != 7 || got[2] != -8 {
		t.Fatalf("Load(1) = %v, want [-5 7 -8]", got)
	}

	v.Reset(src, 2, 4, []PrefOp{PrefKeep, PrefKeep, PrefKeep, PrefKeep})
	if got := v.Load(1, buf[:]); v.D() != 4 || &got[0] != &src[4] {
		t.Fatalf("all-Keep view does not alias the source row (D=%d)", v.D())
	}
	v.Reset(src, 2, 4, nil)
	if got := v.Load(0, nil); v.D() != 4 || &got[0] != &src[0] {
		t.Fatalf("op-less view does not alias the source row (D=%d)", v.D())
	}

	v.Reset(src, 2, 4, []PrefOp{PrefDrop, PrefDrop, PrefDrop, PrefNegate})
	var dst [1]float64
	v.CopyRow(dst[:], 0)
	if v.D() != 1 || dst[0] != -4 {
		t.Fatalf("one-column view copies %v (D=%d), want [-4]", dst, v.D())
	}

	ops := []PrefOp{PrefNegate, PrefDrop, PrefKeep, PrefNegate}
	if allocs := testing.AllocsPerRun(20, func() { v.Reset(src, 2, 4, ops) }); allocs != 0 {
		t.Errorf("warm Reset allocates %.1f per call, want 0", allocs)
	}
}

// FuzzViewLoad decodes (d, ops, rows) from the byte string and checks
// the view against the staged copy it replaces on the hot paths: every
// Load — and every CopyRow — is bit for bit the matching row of
// StagePrefs, an identity view hands out the source rows themselves,
// and Source8 hands out the source, whose kept columns hold what Load
// returns, exactly for 8-column views that negate no column.
func FuzzViewLoad(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{1, 0, 0, 5, 9})
	f.Add([]byte{7, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1})
	f.Add([]byte{7, 0, 2, 0, 0, 2, 2, 0, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}) // drop-only, d = 8
	f.Add([]byte{7, 0, 2, 0, 1, 2, 2, 0, 2, 1, 2, 3, 4, 5, 6, 7, 8})                                // one negated, d = 8
	f.Add([]byte{15, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		d := int(data[0]%16) + 1
		data = data[1:]
		if len(data) < d {
			return
		}
		ops := make([]PrefOp, d)
		for j := range ops {
			ops[j] = PrefOp(data[j] % 3)
		}
		data = data[d:]
		n := len(data) / d
		if n > 64 {
			n = 64
		}
		src := make([]float64, n*d)
		for i := range src {
			src[i] = fuzzVal(data[i])
		}

		de := EffectiveDims(ops)
		want := make([]float64, n*de)
		StagePrefs(want, src, n, d, ops)

		var v View
		v.Reset(src, n, d, ops)
		if v.N() != n || v.D() != de {
			t.Fatalf("view is %d×%d, staged copy is %d×%d (ops=%v)", v.N(), v.D(), n, de, ops)
		}
		// Source8 hands out the source exactly for the views of 8 columns
		// that negate none, with Load's column k at source column
		// cols8[k].
		src8, cols8 := v.Source8()
		if want := d == 8 && !slices.Contains(ops, PrefNegate); (src8 != nil) != want || want && len(cols8) != de {
			t.Fatalf("ops=%v: Source8 returned the source %v and %d columns, want %v and %d", ops, src8 != nil, len(cols8), want, de)
		}
		var buf [MaxDims]float64
		row := make([]float64, de)
		for i := 0; i < n; i++ {
			got := v.Load(i, buf[:])
			v.CopyRow(row, i)
			if len(got) != de {
				t.Fatalf("row %d: Load returned %d values, want %d", i, len(got), de)
			}
			for k := 0; k < de; k++ {
				w := math.Float64bits(want[i*de+k])
				if math.Float64bits(got[k]) != w || math.Float64bits(row[k]) != w {
					t.Fatalf("row %d col %d: Load=%v CopyRow=%v staged=%v (ops=%v)", i, k, got[k], row[k], want[i*de+k], ops)
				}
			}
			for k, c := range cols8 {
				if math.Float64bits(src8[i*8+c]) != math.Float64bits(got[k]) {
					t.Fatalf("row %d col %d: source column %d holds %v, Load %v (ops=%v)", i, k, c, src8[i*8+c], got[k], ops)
				}
			}
			if IdentityOps(ops) && &got[0] != &src[i*d] {
				t.Fatalf("row %d: identity view copied the row instead of aliasing it", i)
			}
		}
	})
}

package pivot

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"skybench/internal/point"
)

// sample returns column j of m as MedianColumns samples it.
func sample(m point.Matrix, j int) []float64 {
	var col []float64
	for i := 0; i < m.N(); i += medianStep(m.N()) {
		col = append(col, m.Row(i)[j])
	}
	return col
}

// sortedMiddle is the reference MedianColumns is held to: the middle
// element, rank len/2, of a sorted copy of col.
func sortedMiddle(col []float64) float64 {
	s := slices.Clone(col)
	slices.Sort(s)
	return s[len(s)/2]
}

// checkMedians runs MedianColumns over every column of m, with and
// without scratch, and the histogram select (medianOf) over every
// column whatever its length, and holds each result to sortedMiddle. A
// zero of either sign matches a zero of either sign: no mask compare
// tells them apart.
func checkMedians(t *testing.T, m point.Matrix, at string) {
	t.Helper()
	for _, col := range [][]float64{nil, make([]float64, 0, MedianScratchLen(m.N()))} {
		v := make([]float64, m.D())
		MedianColumns(m, v, col, 0, m.D())
		for j, got := range v {
			if want := sortedMiddle(sample(m, j)); got != want {
				t.Fatalf("%s: column %d median %v, want %v", at, j, got, want)
			}
		}
	}
	var hist [medianBuckets]int32
	for j := 0; j < m.D(); j++ {
		col := sample(m, j)
		want := sortedMiddle(col)
		mn, mx := slices.Min(col), slices.Max(col)
		if got := medianOf(col, mn, mx, &hist); got != want {
			t.Fatalf("%s: column %d histogram median %v, want %v", at, j, got, want)
		}
	}
}

// column returns an n-row, one-column matrix of f(i).
func column(n int, f func(i int) float64) point.Matrix {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = f(i)
	}
	return point.FromFlat(vals, n, 1)
}

// TestMedianColumnsExact holds MedianColumns and the histogram select to
// the sorted copy's middle element on the columns they could get wrong: ties that fill one
// bucket, a constant column (a zero range, the quickselect fallback),
// two values, zeros of both signs, one-ulp neighbours, values that
// straddle a bucket edge, a column of more than medianSampleCap rows
// (sampled), ranges that overflow, and ±Inf, which takes the fallback.
func TestMedianColumnsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ulp := math.Nextafter(0.5, 1) - 0.5
	cases := []struct {
		name string
		m    point.Matrix
	}{
		{"single", column(1, func(int) float64 { return 0.25 })},
		{"pair", column(2, func(i int) float64 { return float64(i) })},
		{"constant", column(1001, func(int) float64 { return 0.7 })},
		{"two-values", column(1000, func(i int) float64 { return float64(i % 2) })},
		{"two-values-odd", column(999, func(i int) float64 { return 3 + float64(i%2) })},
		{"tie-heavy", column(5000, func(int) float64 { return float64(rng.Intn(5)) / 4 })},
		{"tie-heavy-long", column(medianHistMin+1, func(int) float64 { return float64(rng.Intn(9)) / 8 })},
		{"one-outlier", column(4000, func(i int) float64 {
			if i == 17 {
				return 1e9
			}
			return float64(rng.Intn(3))
		})},
		{"signed-zeros", column(1000, func(i int) float64 {
			switch i % 4 {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return 0
			case 2:
				return -1
			}
			return 1
		})},
		{"ulp-neighbours", column(3000, func(int) float64 { return 0.5 + float64(rng.Intn(7)-3)*ulp })},
		{"ulp-beside-range", column(3000, func(i int) float64 {
			if i%3 == 0 {
				return 1
			}
			return math.Nextafter(0.5, float64(i%2))
		})},
		{"bucket-edges", column(4096, func(i int) float64 { return float64(i%2048) / 2047 })},
		{"sampled", column(3*medianSampleCap+7, func(int) float64 { return float64(rng.Intn(1000)) / 999 })},
		{"overflowing-range", column(1001, func(i int) float64 { return float64(i%3-1) * math.MaxFloat64 })},
		{"subnormal-range", column(1001, func(i int) float64 { return float64(i%5) * 5e-324 })},
		{"inf", column(1001, func(i int) float64 {
			switch i % 5 {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return rng.Float64()
		})},
		{"uniform-d4", point.FromFlat(func() []float64 {
			v := make([]float64, 4*20000)
			for i := range v {
				v[i] = rng.Float64()
			}
			return v
		}(), 20000, 4)},
	}
	for _, c := range cases {
		checkMedians(t, c.m, c.name)
	}
}

// FuzzMedianColumns holds MedianColumns to the sorted copy's middle
// element on fuzzed columns. The first byte picks the palette: bit 0
// draws each value as raw float64 bits from the input (skipping NaN,
// which the precondition rules out), otherwise from a palette of ties,
// signed zeros, one-ulp neighbours and, when bit 1 is set, ±Inf. The
// next two bytes set n (1–4 096) and bit 2 of the first the columns (1
// or 3).
func FuzzMedianColumns(f *testing.F) {
	f.Add([]byte{0, 200, 3, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 16, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 1, 2, 3})
	f.Add([]byte{2, 255, 15, 9, 8, 7})
	f.Add([]byte{4, 17, 1, 0, 1, 0, 1})
	f.Add([]byte{5, 40, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f})
	pal := []float64{0, math.Copysign(0, -1), 0.5, math.Nextafter(0.5, 1), math.Nextafter(0.5, 0), 1, -1, 1e300}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 3 {
			return
		}
		mode := b[0]
		n := 1 + int(binary.LittleEndian.Uint16(b[1:3]))%4096
		d := 1
		if mode&4 != 0 {
			d = 3
		}
		src := b[3:]
		vals := make([]float64, n*d)
		for i := range vals {
			if mode&1 != 0 {
				var w [8]byte
				for c := range w {
					if len(src) > 0 {
						w[c] = src[(i*8+c)%len(src)] + byte(i)
					}
				}
				x := math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
				if math.IsNaN(x) {
					x = float64(i)
				}
				vals[i] = x
				continue
			}
			var s byte
			if len(src) > 0 {
				s = src[i%len(src)] ^ byte(i*7)
			}
			vals[i] = pal[s%8]
			if mode&2 != 0 && s%16 >= 14 {
				vals[i] = math.Inf(int(s%2)*2 - 1)
			}
		}
		checkMedians(t, point.FromFlat(vals, n, d), fmt.Sprintf("mode %d n %d d %d", mode, n, d))
	})
}

// BenchmarkMedianColumns prices one column's median on columns of
// uniform values around medianHistMin and at 30 000 values, the
// histogram select (medianOf, on a copy of the column) against
// quickselect over the whole column.
func BenchmarkMedianColumns(b *testing.B) {
	for _, n := range []int{2048, medianHistMin, 8192, 30000} {
		rng := rand.New(rand.NewSource(1))
		m := column(n, func(int) float64 { return rng.Float64() })
		mn, mx := slices.Min(m.Flat()), slices.Max(m.Flat())
		col := make([]float64, 0, n)
		var hist [medianBuckets]int32
		b.Run(fmt.Sprintf("n=%d/histogram", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				col = append(col[:0], m.Flat()...)
				medianOf(col, mn, mx, &hist)
			}
		})
		b.Run(fmt.Sprintf("n=%d/quickselect", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				col = append(col[:0], m.Flat()...)
				quickselect(col, n/2)
			}
		})
	}
}

package point

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// codeColumn fits a quantizer to the column ranges of rows (d columns
// per row; q's when there are none) and returns the rows' code words
// and q's. q is coded by the same map whether or not it lies inside
// the fitted range, as a probe of a real run may not.
func codeColumn(rows []float64, d int, q []float64) ([]uint64, uint64) {
	z := fitQuantizer(rows, d, q)
	n := len(rows) / d
	codes := make([]uint64, n)
	for j := range codes {
		codes[j] = z.Code(rows[j*d : (j+1)*d])
	}
	return codes, z.Code(q)
}

func fitQuantizer(rows []float64, d int, q []float64) *Quantizer {
	src := rows
	if len(src) < d {
		src = q
	}
	lo, hi := make([]float64, d), make([]float64, d)
	copy(lo, src[:d])
	copy(hi, src[:d])
	for off := d; off+d <= len(src); off += d {
		for j, v := range src[off : off+d] {
			lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
		}
	}
	z := new(Quantizer)
	z.Reset(d, lo, hi)
	return z
}

// lane returns dimension j's code in a code word of d dimensions.
func lane(word uint64, d, j int) uint64 {
	w := codeWidth(d)
	return word >> (uint(j) * w) & (1<<(w-1) - 1)
}

// TestCodeLayout pins the lane layout: enough lanes for d, the code
// widths DESIGN.md §2 lists, and one guard bit on top of every lane.
func TestCodeLayout(t *testing.T) {
	wantCode := func(d int) int {
		switch {
		case d <= 2:
			return 31
		case d <= 4:
			return 15
		case d <= 8:
			return 7
		case d <= 16:
			return 3
		}
		return 1
	}
	for d := 1; d <= MaxDims; d++ {
		w := int(codeWidth(d))
		var z Quantizer
		z.Reset(d, make([]float64, d), make([]float64, d))
		if lanes := 64 / w; lanes < d || lanes >= 2*d && d > 1 {
			t.Errorf("d=%d: %d lanes of %d bits", d, lanes, w)
		}
		if got := bits.Len64(uint64(z.top)); got != wantCode(d) {
			t.Errorf("d=%d: %d-bit codes, want %d", d, got, wantCode(d))
		}
		h := codeGuards[d]
		if bits.OnesCount64(h) != 64/w || h>>63 != 1 {
			t.Errorf("d=%d: guard bits %#x", d, h)
		}
	}
}

// TestCodePretestLanes holds the three-operation pre-test, and CodeMin,
// to the lane-by-lane comparison and minimum they stand for, on random
// codes including each lane's extremes, at every d.
func TestCodePretestLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for d := 1; d <= MaxDims; d++ {
		var z Quantizer
		z.Reset(d, make([]float64, d), make([]float64, d))
		top := uint64(z.top)
		draw := func() []uint64 {
			v := make([]uint64, d)
			for j := range v {
				switch rng.Intn(4) {
				case 0:
					v[j] = 0
				case 1:
					v[j] = top
				default:
					v[j] = uint64(rng.Int63n(int64(top) + 1))
				}
			}
			return v
		}
		pack := func(v []uint64) uint64 {
			var word uint64
			for j, c := range v {
				word |= c << (uint(j) * codeWidth(d))
			}
			return word
		}
		h := codeGuards[d]
		for trial := 0; trial < 2000; trial++ {
			r, q := draw(), draw()
			if trial%3 == 0 {
				copy(r, q)
				r[rng.Intn(d)] = uint64(rng.Int63n(int64(top) + 1))
			}
			want := true
			for j := range r {
				want = want && r[j] <= q[j]
			}
			if got := codeLE(pack(r), pack(q)|h, h); got != want {
				t.Fatalf("d=%d r=%v q=%v: pre-test %v, lanes say %v", d, r, q, got, want)
			}
			if got := CodeLE(pack(r), pack(q), d); got != want {
				t.Fatalf("d=%d r=%v q=%v: CodeLE %v, lanes say %v", d, r, q, got, want)
			}
			lo := make([]uint64, d)
			for j := range lo {
				lo[j] = min(r[j], q[j])
			}
			if got := CodeMin(pack(r), pack(q), d); got != pack(lo) {
				t.Fatalf("d=%d r=%v q=%v: CodeMin %x, lane minima %v", d, r, q, got, lo)
			}
		}
	}
}

// TestQuantizerEdges codes the values where floating point could break
// monotonicity — signed zeros, subnormal and overflowing ranges,
// constant columns, one-ulp neighbours, probes outside the fitted range
// and infinities — and checks the codes are non-decreasing in the value.
func TestQuantizerEdges(t *testing.T) {
	neg0 := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	big := math.MaxFloat64
	cases := []struct {
		name   string
		lo, hi float64
		vals   []float64 // ascending
	}{
		{"signed zeros", neg0, 0, []float64{-1, neg0, 0, 1}},
		{"zero low", 0, 1, []float64{neg0, 0, sub, 0.5, math.Nextafter(1, 0), 1, 2}},
		{"subnormal range", 0, sub, []float64{-sub, 0, sub, 2 * sub}},
		{"subnormal low", sub, 3 * sub, []float64{0, sub, 2 * sub, 3 * sub}},
		{"overflowing range", -big, big, []float64{-big, -1, 0, 1, big}},
		{"constant", 0.9, 0.9, []float64{0.8, 0.9, 1}},
		{"ulp neighbours", 0.9, math.Nextafter(0.9, 1), []float64{math.Nextafter(0.9, 0), 0.9, math.Nextafter(0.9, 1), math.Nextafter(math.Nextafter(0.9, 1), 2)}},
		{"absorbing", 1e16, 1e16 + 4, []float64{1e16, 1e16 + 2, 1e16 + 4}},
		{"infinite high", 0, math.Inf(1), []float64{math.Inf(-1), 0, 1, math.Inf(1)}},
		{"infinite low", math.Inf(-1), 0, []float64{math.Inf(-1), -1, 0, math.Inf(1)}},
	}
	for _, c := range cases {
		for _, d := range []int{1, 2, 4, 8, 16, 31} {
			lo, hi := make([]float64, d), make([]float64, d)
			for j := range lo {
				lo[j], hi[j] = c.lo, c.hi
			}
			var z Quantizer
			z.Reset(d, lo, hi)
			row := make([]float64, d)
			prev := uint64(0)
			for i, v := range c.vals {
				row[d-1] = v
				code := lane(z.Code(row), d, d-1)
				if i > 0 && code < prev {
					t.Errorf("%s d=%d: code(%g) = %d < code of the value below, %d", c.name, d, v, code, prev)
				}
				prev = code
			}
		}
	}
	// ±0 code alike whatever the range.
	for _, lo := range []float64{neg0, 0, -1, -sub} {
		var z Quantizer
		z.Reset(1, []float64{lo}, []float64{1})
		if a, b := z.Code([]float64{neg0}), z.Code([]float64{0}); a != b {
			t.Errorf("lo=%g: code(−0) = %d, code(+0) = %d", lo, a, b)
		}
	}
}

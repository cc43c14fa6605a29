package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"skybench"
)

// Everything the benchmark feeds the library is made here, as a pure
// function of -seed: the three row distributions, the stream mutation
// trace and the query-shape lists. The generators are the benchmark's
// own so that a change to the library's data generator, or to
// math/rand, can never change what a seed means.

// rng is splitmix64.
type rng struct{ s uint64 }

// newRNG derives an independent stream per (seed, purpose), so rows,
// trace and shapes of one seed do not share a sequence.
func newRNG(seed int64, purpose string) *rng {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, purpose)
	return &rng{s: h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// bell is the mean of k uniforms: the generator's bell-shaped draw.
func (r *rng) bell(k int) float64 {
	s := 0.0
	for i := 0; i < k; i++ {
		s += r.float()
	}
	return s / float64(k)
}

const (
	correlated     = "correlated"
	independent    = "independent"
	anticorrelated = "anticorrelated"
)

// genRows returns n rows of d values in [0,1], row-major, in the style
// of the Börzsönyi et al. skyline data generator.
func genRows(dist string, n, d int, seed int64) []float64 {
	r := newRNG(seed, "rows/"+dist)
	vals := make([]float64, n*d)
	for i := 0; i < n; i++ {
		row := vals[i*d : (i+1)*d]
		switch dist {
		case independent:
			for j := range row {
				row[j] = r.float()
			}
		case correlated:
			fillCorrelated(r, row)
		case anticorrelated:
			fillAnticorrelated(r, row)
		default:
			panic("loadbench: unknown distribution " + dist)
		}
	}
	return vals
}

// fillCorrelated starts every coordinate at one bell-shaped value and
// moves small amounts between neighbouring coordinates, so the point
// stays near the diagonal and a few points dominate almost all others.
func fillCorrelated(r *rng, row []float64) {
	d := len(row)
	v := r.bell(d)
	l := math.Min(v, 1-v)
	for j := range row {
		row[j] = v
	}
	for j := range row {
		h := (2*r.float() - 1) * l / 2
		k := (j + 1) % d
		row[j] = clamp01(row[j] + h)
		row[k] = clamp01(row[k] - h)
	}
}

// fillAnticorrelated puts the point on a plane Σx = d·v with v close to
// one half and adds zero-sum noise inside the plane: points of one
// plane are incomparable, so most rows are skyline rows.
func fillAnticorrelated(r *rng, row []float64) {
	v := 0.5 + (r.bell(12)-0.5)/2
	l := math.Min(v, 1-v)
	mean := 0.0
	for j := range row {
		row[j] = (2*r.float() - 1) * l
		mean += row[j]
	}
	mean /= float64(len(row))
	for j := range row {
		row[j] = clamp01(v + row[j] - mean)
	}
}

func clamp01(x float64) float64 { return math.Max(0, math.Min(1, x)) }

// traceOp is one stream mutation. Rows are numbered by insertion
// order (their ordinal): an insert adds the row with that ordinal, a
// delete removes the live row that was inserted with that ordinal.
type traceOp struct {
	del bool
	ord int32
}

// genTrace returns pairs × (insert, delete) over a live set that starts
// as ordinals 0..n0-1: every insert takes the next ordinal, every
// delete a uniformly random live one, so the live set stays at n0.
func genTrace(n0, pairs int, seed int64) []traceOp {
	r := newRNG(seed, "trace")
	live := make([]int32, n0, n0+1)
	for i := range live {
		live[i] = int32(i)
	}
	ops := make([]traceOp, 0, 2*pairs)
	for p := 0; p < pairs; p++ {
		ord := int32(n0 + p)
		ops = append(ops, traceOp{ord: ord})
		live = append(live, ord)
		j := r.intn(len(live))
		ops = append(ops, traceOp{del: true, ord: live[j]})
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	return ops
}

// shape is one query class of serve_mix, in wire form.
type shape struct {
	algo  string // "" selects the default (hybrid)
	prefs []skybench.Pref
	k     int // SkybandK; 0 is the skyline
	top   int
}

func (s shape) key() string { return fmt.Sprint(s.algo, s.prefs, s.k, s.top) }

// query is the in-process form of the shape, Top aside.
func (s shape) query() skybench.Query {
	q := skybench.Query{Prefs: s.prefs, SkybandK: s.k}
	if s.algo == "qflow" {
		q.Algorithm = skybench.QFlow
	}
	return q
}

// genShapes returns the 16 cold shapes (12 skyline vectors with 3, 4
// and 5 active dimensions, 2 qflow skylines, 2 k-skybands with k = 3
// and top = 100) and the 8 hot shapes (distinct full-space Min/Max
// vectors). Shapes are distinct within each list. On independent data a
// shape's cost follows its number of active dimensions, so 12 of the
// 16 cold shapes have 4: the median of the mix then lies inside one
// cost group whatever the seed, not on the border between two.
func genShapes(d int, seed int64) (cold, hot []shape) {
	r := newRNG(seed, "shapes")
	seen := map[string]bool{}
	add := func(list *[]shape, s shape) bool {
		if seen[s.key()] {
			return false
		}
		seen[s.key()] = true
		*list = append(*list, s)
		return true
	}
	prefs := func(active int) []skybench.Pref {
		p := make([]skybench.Pref, d)
		perm := make([]int, d)
		for i := range perm {
			perm[i] = i
			p[i] = skybench.Ignore
		}
		for i := 0; i < active; i++ {
			j := i + r.intn(d-i)
			perm[i], perm[j] = perm[j], perm[i]
			p[perm[i]] = skybench.Pref(r.intn(2)) // Min or Max
		}
		return p
	}
	for i, active := range []int{3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 4, 4, 4, 4} {
		s := shape{}
		switch {
		case i >= 14:
			s.k, s.top = 3, 100
		case i >= 12:
			s.algo = "qflow"
		}
		for {
			s.prefs = prefs(min(active, d))
			if add(&cold, s) {
				break
			}
		}
	}
	for len(hot) < min(8, 1<<d) {
		add(&hot, shape{prefs: prefs(d)})
	}
	return cold, hot
}

// fnvFloats and fnvTrace are the checksums the determinism test pins.
func fnvFloats(vals []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

func fnvTrace(ops []traceOp) uint64 {
	h := fnv.New64a()
	var b [5]byte
	for _, op := range ops {
		b[0] = 0
		if op.del {
			b[0] = 1
		}
		binary.LittleEndian.PutUint32(b[1:], uint32(op.ord))
		h.Write(b[:])
	}
	return h.Sum64()
}

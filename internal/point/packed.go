package point

import "math/bits"

// PackedMasks is a column of partition masks packed into 64-bit words,
// one mask per lane: 8-bit lanes for d ≤ 8, 16-bit for d ≤ 16, 32-bit
// above. It exists for one question, asked of every skyline row a
// Phase I probe passes: is the row's mask a subset of the probe's
// (Section VI-A2)? Asked row by row that is a data-dependent branch
// most rows fail; asked of a word it is six ALU operations for 8, 4 or
// 2 rows and a branch only per surviving row. The stream index also
// asks the converse, superset, question of its band.
//
// The zero value is not usable: call Reset first. Reset keeps the word
// slice's capacity, so a store that is refilled every run allocates only
// while it grows.
type PackedMasks struct {
	w    []uint64
	n    int
	idx  uint   // log2 of the lanes per word: row j lives in word j>>idx
	lane uint   // log2 of the lane width in bits
	ones uint64 // the lowest bit of every lane
	low  uint64 // every bit of every lane but its top one
}

// Reset empties the column and sizes its lanes for d-bit masks.
func (p *PackedMasks) Reset(d int) {
	p.lane = 3
	for 1<<p.lane < d {
		p.lane++
	}
	p.idx = 6 - p.lane
	width := uint(1) << p.lane
	p.ones = ^uint64(0) / (1<<width - 1)
	p.low = p.ones * (1<<(width-1) - 1)
	p.w, p.n = p.w[:0], 0
}

// Len returns the number of masks in the column.
func (p *PackedMasks) Len() int { return p.n }

// Append adds m as row Len().
func (p *PackedMasks) Append(m Mask) {
	sub := uint(p.n) & (1<<p.idx - 1)
	if sub == 0 {
		p.w = append(p.w, 0)
	}
	p.w[len(p.w)-1] |= uint64(m) << (sub << p.lane)
	p.n++
}

// At returns row j's mask.
func (p *PackedMasks) At(j int) Mask {
	sub := uint(j) & (1<<p.idx - 1)
	return Mask(p.w[j>>p.idx] >> (sub << p.lane) & (1<<(uint(1)<<p.lane) - 1))
}

// Set overwrites row j's mask with m.
func (p *PackedMasks) Set(j int, m Mask) {
	sh := (uint(j) & (1<<p.idx - 1)) << p.lane
	w := &p.w[j>>p.idx]
	*w = *w&^((1<<(uint(1)<<p.lane)-1)<<sh) | uint64(m)<<sh
}

// Truncate keeps rows [0, n). Append ORs into the last word, so the
// lanes it drops are cleared, not just left behind.
func (p *PackedMasks) Truncate(n int) {
	p.w = p.w[:(n+1<<p.idx-1)>>p.idx]
	if sub := uint(n) & (1<<p.idx - 1); sub != 0 {
		p.w[len(p.w)-1] &= 1<<(sub<<p.lane) - 1
	}
	p.n = n
}

// The shift counts below are masked with 63, which changes no value (idx
// and lane are at most 5, a lane offset at most 56) and tells the
// compiler so: an unmasked variable shift compiles to a compare and a
// select around the shift.

// probe replicates a probe's mask into every lane.
func (p *PackedMasks) probe(qm Mask) uint64 { return uint64(qm) * p.ones }

// laneSpan locates the rows [lo, hi) of a column: the words that hold
// them, and the lanes of the first and the last word that are in range.
type laneSpan struct {
	first, last int // last < first for an empty run
	head, tail  uint64
}

func (p *PackedMasks) span(lo, hi int) laneSpan {
	per := 1<<(p.idx&63) - 1 // lanes per word − 1
	return laneSpan{
		first: lo >> (p.idx & 63),
		last:  (hi - 1) >> (p.idx & 63),
		head:  ^uint64(0) << (uint(lo&per) << (p.lane & 63) & 63),
		tail:  ^uint64(0) >> (uint(per-(hi-1)&per) << (p.lane & 63) & 63),
	}
}

// headAt is the clip a vector word step starting at word wi applies
// to it: the span's head at its first word, every lane at a later one.
func (s laneSpan) headAt(wi int) uint64 {
	if wi == s.first {
		return s.head
	}
	return ^uint64(0)
}

// clip drops word wi's candidates outside the span.
func (s laneSpan) clip(wi int, z uint64) uint64 {
	if wi == s.first {
		z &= s.head
	}
	if wi == s.last {
		z &= s.tail
	}
	return z
}

// subsets is the filter: it returns word wi with the top bit of a lane
// set iff that lane's mask is a subset of the probe's. x keeps, per
// lane, the row's bits the probe lacks, so the question is which lanes
// of x are zero. Adding low to a lane's low bits carries into its top
// bit iff they are not all zero, and never out of the lane (at most
// 2·low < 2^width), so no lane reads its neighbour; or-ing x back in
// covers a lane whose only set bit is the top one. The complement of
// that top bit is therefore exact — no false candidates to re-check,
// which is why dominance-test counts do not move.
func (p *PackedMasks) subsets(wi int, probe uint64) uint64 {
	x := p.w[wi] &^ probe
	return ^((x&p.low + p.low) | x | p.low)
}

// supersets is subsets with the roles swapped, for the rows a probe
// could dominate: the top bit of a lane is set iff that lane's mask is
// a superset of the probe's. x keeps, per lane, the probe's bits the
// row lacks; the zero-lane test is subsets' and as exact.
func (p *PackedMasks) supersets(wi int, probe uint64) uint64 {
	x := probe &^ p.w[wi]
	return ^((x&p.low + p.low) | x | p.low)
}

// row returns the row of the lowest candidate bit of z, a result of
// subsets for word wi; z &= z − 1 moves on to the next, so candidates
// come out in ascending row order.
func (p *PackedMasks) row(wi int, z uint64) int {
	return wi<<(p.idx&63) + bits.TrailingZeros64(z)>>(p.lane&63)
}

// nextSubset returns the first row j ∈ [lo, hi) whose mask is a subset
// of qm, or hi when there is none.
func (p *PackedMasks) nextSubset(lo, hi int, qm Mask) int {
	probe := p.probe(qm)
	sp := p.span(lo, hi)
	for wi := sp.first; wi <= sp.last; wi++ {
		if z := sp.clip(wi, p.subsets(wi, probe)); z != 0 {
			return p.row(wi, z)
		}
	}
	return hi
}

// nextSubsetCoded returns the first row j ∈ [lo, hi) whose mask is a
// subset of qm and whose code word passes the pre-test against qc
// (CodeLE(codes[j], qc, d)), or hi when there is none; nil codes asks
// no pre-test. It is the Go probe's walk of the M(S) directory (probeGo),
// which books no test for a directory entry.
func (p *PackedMasks) nextSubsetCoded(lo, hi int, qm Mask, codes []uint64, qc uint64, d int) int {
	for lo = p.nextSubset(lo, hi, qm); lo < hi; lo = p.nextSubset(lo+1, hi, qm) {
		if codes == nil || CodeLE(codes[lo], qc, d) {
			break
		}
	}
	return lo
}

package point

import "os"

// hasAVX512BW records whether this package's AVX-512 bodies may run:
// scan8, unionScan8, Phase I's probe (probeDir8) and the word step of
// the band scans (bandSkip8). It is read once, at start-up. The CPU
// must have every extension the bodies use, read from CPUID and XGETBV:
// AVX512F (CPUID leaf 7 EBX bit 16), AVX512BW for the byte-lane
// instructions — VPMOVB2M, VPTESTNMB, the masked byte load and the
// 64-bit K-mask moves, shifts and unpacks (leaf 7 EBX bit 30) — and
// POPCNT (leaf 1 ECX bit 23); and the OS must save the XMM, YMM, opmask
// and ZMM register state across context switches (XCR0 bits 1, 2, 5, 6
// and 7).
// XGETBV may only be asked when CPUID reports OSXSAVE (leaf 1 ECX bit
// 27). And GODEBUG must not turn AVX512F or AVX512BW off (avx512Off):
// the options the Go runtime takes for its own AVX-512 code choose the
// Go bodies here too.
var hasAVX512BW = cpuHasAVX512BW() && !avx512Off(os.Getenv("GODEBUG"))

func cpuHasAVX512BW() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const popcnt, osxsave = 1 << 23, 1 << 27
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(popcnt|osxsave) != popcnt|osxsave {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	const avx512f, avx512bw = 1 << 16, 1 << 30
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(avx512f|avx512bw) == avx512f|avx512bw
}

// scan8 is Queue.Scan's vector body: pass 1's queue test run over a
// stretch of rows at once, with the β = 8 queue's columns held in
// registers. q holds the queue twice: column-major in q[0:64] — q[c*8+s]
// is coordinate c of queue slot s — and row-major in q[64:128] —
// q[64+s*8+c] is the same value. rows holds 8-column rows, row-major.
// scan8 tests each row in turn against the 8 queue slots and returns the
// index of the first row with fewer than budget (≥ 1) dominators among
// them, or len(rows)/8 when every row has budget or more.
//
// The result and *dts are those of CountDominatorsInFlatRun on the
// row-major queue, called row by row in slot order: a row it passes
// over advances *dts by the position of its budget-th dominating slot
// plus one, and the row it returns at by 8. One compare chain over the
// column-major copy, a compare of a queue column against the row's
// broadcast value per coordinate, finds the slots no worse than the row
// anywhere; only those can dominate it, and each is then asked whether
// it is better somewhere with one compare of the row against its
// row-major copy, in slot order, until the budget-th dominator.
//
//go:noescape
func scan8(q *[128]float64, rows []float64, budget int, dts *uint64) int

// unionScan8 is Union.Scan's vector body: pass 2's test run over a
// stretch of stored candidates at once, the union laid out by
// layoutUnion8 in u, against rows (8-column rows, row-major) with their
// norms l1 (row i's at l1[i]). It tests each row in turn and returns the
// index of the first with fewer than budget (≥ 1) dominators among the
// union points whose norm is below its own, or the number of rows when
// every row has budget or more; it scans min(len(rows)/8, len(l1)) rows.
//
// The result and *dts are those of Union.Count called row by row:
// CountDominatorsInFlatRun(urows, 8, 0, a, row, budget, dts) on the
// union's row-major rows, where a is the number of union points with
// norm < the row's, the footnote-2 cut-off. So a row it passes over
// advances *dts by the position of its budget-th dominator plus one, and
// the row it returns at by a. A union slot takes part where its norm is
// below the row's (the cut-off is a lane mask, not a prefix length):
// this is the prefix only because the union's norms ascend, with no
// NaN (Union.Reset).
//
//go:noescape
func unionScan8(u []float64, rows []float64, l1 []float64, budget int, dts *uint64) int

// probeDir8 is ProbeDirectory's vector body: flags bit 0 asks level 2 and
// bit 1 the directory's minimum-code skip, qg is qc | h and h the code
// guards; dcodes is read only with bit 1.
//
//go:noescape
func probeDir8(rows *float64, d int, dir, dcodes *uint64, starts *int, np int, masks, codes *uint64, q *float64, flags, qm, qg, h uint64, budget int, dts *uint64) int

// bandSkip8 is the vector step of AppendDominatorsMasked and
// AppendDominatedMasked on an 8-bit-lane mask column: it walks words
// wi … last of words and returns the first whose rows hold one that
// passes the mask filter, the norm filter and the code pre-test, or
// last + 1 when none does. Word wi is clipped to head and word last to
// tail (laneSpan). For every word it passes over it adds the rows that
// pass the first two filters to *n: each is a dominance test its code
// word rejects. codes and l1 hold the column's code words and norms,
// row j's at index j.
//
// One body serves both directions; the operands pick the tests. A
// row's mask m passes when (m ^ flip) & keep is zero, its norm when
// !(l1 ^ neg > qL1 ^ neg) as float64 bits, and its code word r when
// (qg − (r ^ cflip)) & h == h. The dominators' scan passes flip 0,
// keep ^qm's low 8 bits, neg 0, qg qc | h and cflip 0: m ⊆ qm,
// !(l1 > qL1) and codeLE(r, qc | h, h). The dominated scan passes flip
// 0xff, keep qm, neg the sign bit, qg ^qc and cflip ^h: m ⊇ qm,
// !(-l1 > -qL1), which is !(l1 < qL1), and, per code lane of W bits,
// (2^W − 1 − q) − (2^(W−1) − 1 − r) = 2^(W−1) + r − q: the lane
// codeLE(qc, r | h, h) computes, for code words whose guard bits are
// clear.
//
//go:noescape
func bandSkip8(words, codes *uint64, l1 *float64, wi, last int, head, tail, flip, keep, neg, qg, cflip, h uint64, qL1 float64, n *uint64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

package point

// hasScan8 records whether the CPU can run Scan8's AVX-512 body. It is
// read once, at start-up, from CPUID and XGETBV: the CPU must have
// AVX512F and the OS must save the XMM, YMM, opmask and ZMM register
// state across context switches (XCR0 bits 1, 2, 5, 6 and 7). XGETBV
// may only be asked when CPUID reports OSXSAVE.
var hasScan8 = func() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(1<<27) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<16) != 0
}()

// HasScan8 reports whether Scan8 may be called on this CPU.
func HasScan8() bool { return hasScan8 }

// Scan8 is the pre-filter's pass-1 queue test run over a stretch of
// rows at once, with the whole β = 8 queue held in registers. cols is
// the queue column-major — cols[c*8+s] is coordinate c of queue slot s —
// and rows holds 8-column rows, row-major. Scan8 tests each row in turn
// against the 8 queue slots and returns the index of the first row with
// fewer than budget (≥ 1) dominators among them, or len(rows)/8 when
// every row has budget or more.
//
// The result and *dts are those of CountDominatorsInFlatRunShortCircuit
// on the row-major queue, called row by row in slot order: a row it
// passes over advances *dts by the position of its budget-th dominating
// slot plus one, and the row it returns at by 8. Each coordinate is one
// compare of a queue column against the row's broadcast value, so the
// test takes no branch per slot. Call it only when HasScan8 reports
// true.
//
//go:noescape
func Scan8(cols *[64]float64, rows []float64, budget int, dts *uint64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func Scan8(cols *[64]float64, rows []float64, budget int, dts *uint64) int
//
// Z0–Z7 hold the queue's eight columns; lane s of Zc is coordinate c of
// slot s. For each row, K1 collects the slots no worse than the row in
// any coordinate (NGT_UQ: not q > p, as the Go body asks it, so NaN
// counts as not worse), and K2 those of K1 also no better in any
// (NLT_UQ). K1 ^ K2 is then the row's dominating slots.
TEXT ·Scan8(SB), NOSPLIT, $0-56
	MOVQ cols+0(FP), DI
	MOVQ rows_base+8(FP), SI
	MOVQ rows_len+16(FP), CX
	SHRQ $3, CX           // CX = rows to scan
	MOVQ budget+32(FP), R8
	DECQ R8               // R8 = dominators to drop before the budget-th
	MOVQ dts+40(FP), R9
	MOVQ (R9), R10        // R10 = running test count
	VMOVUPD 0(DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 256(DI), Z4
	VMOVUPD 320(DI), Z5
	VMOVUPD 384(DI), Z6
	VMOVUPD 448(DI), Z7
	XORQ BX, BX           // BX = row index

row:
	CMPQ BX, CX
	JGE  done
	VCMPPD.BCST $0x1a, 0(SI), Z0, K1
	VCMPPD.BCST $0x1a, 8(SI), Z1, K1, K1
	VCMPPD.BCST $0x1a, 16(SI), Z2, K1, K1
	VCMPPD.BCST $0x1a, 24(SI), Z3, K1, K1
	VCMPPD.BCST $0x1a, 32(SI), Z4, K1, K1
	VCMPPD.BCST $0x1a, 40(SI), Z5, K1, K1
	VCMPPD.BCST $0x1a, 48(SI), Z6, K1, K1
	VCMPPD.BCST $0x1a, 56(SI), Z7, K1, K1
	VCMPPD.BCST $0x15, 0(SI), Z0, K1, K2
	VCMPPD.BCST $0x15, 8(SI), Z1, K2, K2
	VCMPPD.BCST $0x15, 16(SI), Z2, K2, K2
	VCMPPD.BCST $0x15, 24(SI), Z3, K2, K2
	VCMPPD.BCST $0x15, 32(SI), Z4, K2, K2
	VCMPPD.BCST $0x15, 40(SI), Z5, K2, K2
	VCMPPD.BCST $0x15, 48(SI), Z6, K2, K2
	VCMPPD.BCST $0x15, 56(SI), Z7, K2, K2
	KXORW K1, K2, K3
	KMOVW K3, AX          // AX = dominating slots, bit s for slot s
	MOVQ R8, DX

drop:
	// Clear the lowest budget−1 dominators; the lowest one left, if
	// any, is the slot the short-circuit scan stops on.
	TESTL AX, AX
	JZ    survivor
	TESTQ DX, DX
	JZ    pruned
	LEAL  -1(AX), R11
	ANDL  R11, AX
	DECQ  DX
	JMP   drop

pruned:
	BSFL AX, AX
	LEAQ 1(R10)(AX*1), R10
	ADDQ $64, SI
	INCQ BX
	JMP  row

survivor:
	ADDQ $8, R10

done:
	MOVQ R10, (R9)
	MOVQ BX, ret+48(FP)
	VZEROUPPER
	RET

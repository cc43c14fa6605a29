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
//
// Each row first prefetches the line 2 KiB ahead (PREFETCHT0): the scan
// reads each row once, in order, and on rows streamed from memory the
// prefetch takes it to the rate it has on cached ones. BenchmarkScan8
// chose the distance: 512 B and 1 KiB left streamed rows slower than
// cached ones, 1.5–3 KiB did not, and no distance slowed cached rows.
// A prefetch past the end of rows is harmless: it does not fault.
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
	PREFETCHT0 2048(SI)  // the row 32 rows ahead
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

// func UnionScan8(u []float64, rows []float64, l1 []float64, budget int, dts *uint64) int
//
// Per row: Z16–Z23 hold its eight coordinates and Z24 its norm, each
// broadcast to every lane, and every chunk of u is read from memory
// (it stays in L1): 64 bytes a column, lane s of column c at c*64 +
// s*8, then the 8 norms at 512. In a chunk, K1 = the slots whose norm is
// below the row's (GT_OQ of the row's against the slot's: false on an
// unordered pair, so a NaN row norm allows no slot and a pad slot's +∞
// never passes). K2 = the slots of K1 no worse than the row in any
// coordinate (NLT_UQ: not row < slot), K3 those of K2 also no better in
// any (NGT_UQ), and K2 ^ K3 the row's dominating slots; these are
// Scan8's compares with the operands swapped. The norms ascend, so a
// chunk with K1 empty ends the union for the row: it survives, and
// every slot of K1 so far (R13) was a test. A chunk whose dominators
// reach the budget DX still to find prunes the row: its tests are R13,
// the slots of the full chunks before it, plus the position of the
// budget-th dominator plus one.
TEXT ·UnionScan8(SB), NOSPLIT, $0-96
	MOVQ u_base+0(FP), DI
	MOVQ u_len+8(FP), AX
	LEAQ -576(DI)(AX*8), R8 // R8 = the last whole chunk
	MOVQ rows_base+24(FP), SI
	MOVQ rows_len+32(FP), CX
	SHRQ $3, CX
	MOVQ l1_len+56(FP), AX
	CMPQ AX, CX
	CMOVQLT AX, CX
	SHLQ $6, CX
	ADDQ SI, CX           // CX = the end of the rows to scan
	MOVQ l1_base+48(FP), R9 // R9 = the row's norm
	MOVQ dts+80(FP), AX
	MOVQ (AX), R10        // R10 = running test count

row:
	CMPQ SI, CX
	JGE  done
	VBROADCASTSD 0(SI), Z16
	VBROADCASTSD 8(SI), Z17
	VBROADCASTSD 16(SI), Z18
	VBROADCASTSD 24(SI), Z19
	VBROADCASTSD 32(SI), Z20
	VBROADCASTSD 40(SI), Z21
	VBROADCASTSD 48(SI), Z22
	VBROADCASTSD 56(SI), Z23
	VBROADCASTSD (R9), Z24
	MOVQ DI, R11          // R11 = the chunk
	MOVQ budget+72(FP), DX // DX = dominators still to find
	XORQ R13, R13         // R13 = the row's tests in the chunks before R11

chunk:
	CMPQ R11, R8
	JGT  survivor
	VCMPPD $0x1e, 512(R11), Z24, K1
	KORTESTW K1, K1
	JZ   survivor
	VCMPPD $0x15, 0(R11), Z16, K1, K2
	VCMPPD $0x15, 64(R11), Z17, K2, K2
	VCMPPD $0x15, 128(R11), Z18, K2, K2
	VCMPPD $0x15, 192(R11), Z19, K2, K2
	VCMPPD $0x15, 256(R11), Z20, K2, K2
	VCMPPD $0x15, 320(R11), Z21, K2, K2
	VCMPPD $0x15, 384(R11), Z22, K2, K2
	VCMPPD $0x15, 448(R11), Z23, K2, K2
	VCMPPD $0x1a, 0(R11), Z16, K2, K3
	VCMPPD $0x1a, 64(R11), Z17, K3, K3
	VCMPPD $0x1a, 128(R11), Z18, K3, K3
	VCMPPD $0x1a, 192(R11), Z19, K3, K3
	VCMPPD $0x1a, 256(R11), Z20, K3, K3
	VCMPPD $0x1a, 320(R11), Z21, K3, K3
	VCMPPD $0x1a, 384(R11), Z22, K3, K3
	VCMPPD $0x1a, 448(R11), Z23, K3, K3
	KXORW K2, K3, K3
	KMOVW K3, AX          // AX = dominating slots, bit s for slot s
	POPCNTL AX, R12
	CMPQ R12, DX
	JGE  pruned
	SUBQ R12, DX
	KMOVW K1, BX
	POPCNTL BX, BX
	ADDQ BX, R13
	ADDQ $576, R11
	JMP  chunk

pruned:
	// Clear the lowest DX−1 dominators; the lowest one left is the
	// slot the Go body stops on.
	DECQ DX

drop:
	TESTQ DX, DX
	JZ    found
	LEAL  -1(AX), R12
	ANDL  R12, AX
	DECQ  DX
	JMP   drop

found:
	BSFL AX, AX
	LEAQ 1(R10)(R13*1), R10
	ADDQ AX, R10
	ADDQ $64, SI
	ADDQ $8, R9
	JMP  row

survivor:
	ADDQ R13, R10

done:
	MOVQ dts+80(FP), AX
	MOVQ R10, (AX)
	SUBQ rows_base+24(FP), SI
	SHRQ $6, SI
	MOVQ SI, ret+88(FP)
	VZEROUPPER
	RET

// func maskedSkip8(words, codes *uint64, wi, last int, head, tail, probe, qg, h uint64, n *uint64) int
//
// bandSkip8's word step without the norm filter. Per word: VPMOVZXBQ
// widens its 8 mask bytes to the 8 qword lanes of Z8, and K1 = the
// lanes of the clip K6 whose m & ^qm is zero (VPTESTNMQ against Z10,
// the probe's missing bits, ^probe & 0xff in every lane); K2 = the
// lanes of K1 whose code word r passes the pre-test (qg − r) & h == h.
// A word with K2 empty adds the popcount of K1, its subset-filter rows,
// to the count. The clips are K masks: K6 holds head's lanes for word
// wi and every lane after it, ANDed with tail's (K5) at word last.
// KMOVW moves K1 to a general register: KMOVB is AVX512DQ, outside the
// gate. Between the first ZMM write and VZEROUPPER every vector
// instruction is VEX or EVEX: one legacy-SSE instruction there (MOVQ
// r, X) pays the SSE/AVX transition on every word.
TEXT ·maskedSkip8(SB), NOSPLIT, $0-88
	MOVQ words+0(FP), SI
	MOVQ codes+8(FP), DI
	MOVQ wi+16(FP), BX
	MOVQ last+24(FP), CX
	MOVQ n+72(FP), R11
	MOVQ (R11), R12       // R12 = running test count
	VMOVQ head+32(FP), X2
	VPMOVB2M Z2, K6       // K6 = clip of the next word: head, then all lanes
	VMOVQ tail+40(FP), X2
	VPMOVB2M Z2, K5
	MOVQ probe+48(FP), AX
	NOTQ AX
	ANDQ $0xff, AX        // AX = the bits the probe lacks
	VPBROADCASTQ AX, Z10
	VPBROADCASTQ qg+56(FP), Z0
	VPBROADCASTQ h+64(FP), Z1
	MOVQ BX, AX
	SHLQ $6, AX
	ADDQ AX, DI           // DI = &codes[wi*8]

word:
	CMPQ BX, CX
	JGT  done
	JLT  body
	KANDW K5, K6, K6

body:
	VPMOVZXBQ (SI)(BX*8), Z8
	VPTESTNMQ Z10, Z8, K6, K1
	KXNORW K6, K6, K6
	VMOVDQU64.Z (DI), K1, Z3
	VPSUBQ Z3, Z0, Z3
	VPANDQ Z1, Z3, Z3
	VPCMPEQQ Z1, Z3, K1, K2
	KORTESTW K2, K2
	JNZ  done
	KMOVW K1, AX
	POPCNTL AX, AX
	ADDQ AX, R12
	INCQ BX
	ADDQ $64, DI
	JMP  word

done:
	MOVQ R12, (R11)
	MOVQ BX, ret+80(FP)
	VZEROUPPER
	RET

// func bandSkip8(words, codes *uint64, l1 *float64, wi, last int, head, tail, flip, keep, neg, qg, cflip, h uint64, qL1 float64, n *uint64) int
//
// Per word: VPMOVZXBQ widens its 8 mask bytes to the 8 qword lanes of
// Z8, and K1 = the lanes of the clip K6 whose (m ^ flip) & keep is zero
// (VPTESTNMQ); K2 = the lanes of K1 whose norm passes (NGT_UQ on the
// norms and qL1, each XORed with neg: !(l1 > qL1), or with the sign bit
// !(-l1 > -qL1) = !(l1 < qL1); unordered counts as true, so a NaN norm
// passes, as in the Go body); K3 = the lanes of K2 whose code word r
// passes (qg − (r ^ cflip)) & h == h. A word with K3 empty adds the
// popcount of K2 to the count. The clips are K masks: K6 holds head's
// lanes for word wi and every lane after it, ANDed with tail's (K5) at
// word last. KMOVW moves K2 to a general register: KMOVB is AVX512DQ,
// outside the gate. As in maskedSkip8, only VEX and EVEX vector forms
// run before VZEROUPPER.
TEXT ·bandSkip8(SB), NOSPLIT, $0-128
	MOVQ words+0(FP), SI
	MOVQ codes+8(FP), DI
	MOVQ l1+16(FP), R10
	MOVQ wi+24(FP), BX
	MOVQ last+32(FP), CX
	MOVQ n+112(FP), AX
	MOVQ (AX), R12        // R12 = running test count
	VMOVQ head+40(FP), X2
	VPMOVB2M Z2, K6       // K6 = clip of the next word: head, then all lanes
	VMOVQ tail+48(FP), X2
	VPMOVB2M Z2, K5
	VPBROADCASTQ flip+56(FP), Z9
	VPBROADCASTQ keep+64(FP), Z10
	VPBROADCASTQ neg+72(FP), Z6
	VPBROADCASTQ qg+80(FP), Z0
	VPBROADCASTQ cflip+88(FP), Z7
	VPBROADCASTQ h+96(FP), Z1
	VPBROADCASTQ qL1+104(FP), Z5
	VPXORQ Z6, Z5, Z5
	MOVQ BX, AX
	SHLQ $6, AX
	ADDQ AX, DI           // DI = &codes[wi*8]
	ADDQ AX, R10          // R10 = &l1[wi*8]

word:
	CMPQ BX, CX
	JGT  done
	JLT  body
	KANDW K5, K6, K6

body:
	VPMOVZXBQ (SI)(BX*8), Z8
	VPXORQ Z9, Z8, Z8
	VPTESTNMQ Z10, Z8, K6, K1
	KXNORW K6, K6, K6
	VMOVUPD.Z (R10), K1, Z4
	VPXORQ Z6, Z4, Z4
	VCMPPD $0x1a, Z5, Z4, K1, K2
	VMOVDQU64.Z (DI), K2, Z3
	VPXORQ Z7, Z3, Z3
	VPSUBQ Z3, Z0, Z3
	VPANDQ Z1, Z3, Z3
	VPCMPEQQ Z1, Z3, K2, K3
	KORTESTW K3, K3
	JNZ  done
	KMOVW K2, AX
	POPCNTL AX, AX
	ADDQ AX, R12
	INCQ BX
	ADDQ $64, DI
	ADDQ $64, R10
	JMP  word

done:
	MOVQ n+112(FP), AX
	MOVQ R12, (AX)
	MOVQ BX, ret+120(FP)
	VZEROUPPER
	RET

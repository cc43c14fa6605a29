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

// func scan8(q *[128]float64, rows []float64, budget int, dts *uint64) int
//
// Z0–Z7 hold the queue's eight columns (q[0:64]); lane s of Zc is
// coordinate c of slot s. For each row, K1 collects the slots no worse
// than the row in any coordinate (NGT_UQ: not q > p, as the Go body asks
// it, so NaN counts as not worse). Only those can dominate it, and one
// does unless it is also no better in any coordinate: the walk takes
// them in ascending slot order and asks each "better somewhere" with
// one compare of the loaded row Z8 against the slot's row-major copy
// (q[64:128], 64 bytes a slot): GT_OQ of the row's coordinates against
// the slot's, false on an unordered pair, so a NaN is neither better nor
// worse, as in the Go body. A row with no such slot costs 8 compares, a
// pruned row 8 plus one per slot the walk reaches.
//
// Each row first prefetches the line 2 KiB ahead (PREFETCHT0): the scan
// reads each row once, in order, and on rows streamed from memory the
// prefetch takes it to the rate it has on cached ones. BenchmarkScan8
// chose the distance: 512 B and 1 KiB left streamed rows slower than
// cached ones, 1.5–3 KiB did not, and no distance slowed cached rows.
// A prefetch past the end of rows is harmless: it does not fault.
TEXT ·scan8(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), DI
	MOVQ rows_base+8(FP), SI
	MOVQ rows_len+16(FP), CX
	SHRQ $3, CX           // CX = rows to scan
	MOVQ budget+32(FP), R8
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
	KMOVW K1, AX          // AX = the slots no worse anywhere, bit s for slot s
	TESTL AX, AX
	JZ    survivor
	VMOVUPD 0(SI), Z8
	MOVQ R8, DX           // DX = dominators still to find

walk:
	// R11 = the lowest slot left; it dominates if the row is worse than
	// it somewhere. The budget-th dominator is the slot the
	// short-circuit scan stops on.
	BSFL AX, R11
	MOVQ R11, R12
	SHLQ $6, R12
	VCMPPD $0x1e, 512(DI)(R12*1), Z8, K2
	KORTESTW K2, K2
	JZ   next
	DECQ DX
	JZ   pruned

next:
	LEAL -1(AX), R12
	ANDL R12, AX
	JNZ  walk

survivor:
	ADDQ $8, R10

done:
	MOVQ R10, (R9)
	MOVQ BX, ret+48(FP)
	VZEROUPPER
	RET

pruned:
	LEAQ 1(R10)(R11*1), R10
	ADDQ $64, SI
	INCQ BX
	JMP  row

// func unionScan8(u []float64, rows []float64, l1 []float64, budget int, dts *uint64) int
//
// Per row: Z16–Z23 hold its eight coordinates and Z24 its norm, each
// broadcast to every lane, and every chunk of u is read from memory
// (it stays in L1): 64 bytes a column, lane s of column c at c*64 +
// s*8, then the 8 norms at 512. In a chunk, K1 = the slots whose norm is
// below the row's (GT_OQ of the row's against the slot's: false on an
// unordered pair, so a NaN row norm allows no slot and a pad slot's +∞
// never passes). K2 = the slots of K1 no worse than the row in any
// coordinate (NLT_UQ: not row < slot), K3 those of K2 also no better in
// any (NGT_UQ), and K2 ^ K3 the row's dominating slots; an unordered
// pair is neither worse nor better, as in the Go body. The norms
// ascend, so a chunk with K1 empty ends the union for the row: it
// survives, and every slot of K1 so far (R13) was a test. A chunk
// whose dominators reach the budget DX still to find prunes the row:
// its tests are R13, the slots of the full chunks before it, plus the
// position of the budget-th dominator plus one.
TEXT ·unionScan8(SB), NOSPLIT, $0-96
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

// CODE8 sets k to the lanes of the 8 code words at off(DI) that pass
// the pre-test against Z0 = qg with guards Z1 = h: (qg − r) & h == h.
// They are loaded under the clip K6 shifted to their word (K1), so no
// lane past the clip is read, nor can pass.
#define CODE8(off, z, k) \
	KSHIFTRQ $(off/8), K6, K1; \
	VMOVDQU64.Z off(DI), K1, z; \
	VPSUBQ z, Z0, z; \
	VPANDQ Z1, z, z; \
	VPCMPEQQ Z1, z, K1, k

// CODES64 sets K2 to the rows of the clip K6 among the 64 whose code
// words start at DI that pass the pre-test: 8 a CODE8, unpacked into
// one 64-bit mask. It uses K1–K5 and Z2–Z7, Z9 and Z13.
#define CODES64 \
	CODE8(0, Z2, K2); \
	CODE8(64, Z3, K3); \
	KUNPCKBW K2, K3, K2; \
	CODE8(128, Z4, K3); \
	CODE8(192, Z5, K4); \
	KUNPCKBW K3, K4, K3; \
	KUNPCKWD K2, K3, K2; \
	CODE8(256, Z6, K3); \
	CODE8(320, Z7, K4); \
	KUNPCKBW K3, K4, K3; \
	CODE8(384, Z9, K4); \
	CODE8(448, Z13, K5); \
	KUNPCKBW K4, K5, K4; \
	KUNPCKWD K3, K4, K3; \
	KUNPCKDQ K2, K3, K2

// func probeDir8(rows *float64, d int, dir, dcodes *uint64, starts *int, np int, masks, codes *uint64, q *float64, flags, qm, qg, h uint64, budget int, dts *uint64) int
//
// ProbeDirectory's vector body, one call a probe. Registers across the walk:
// Z16 = q, K7 = its d coordinate lanes, Z12 = the bits the probe's mask
// lacks (^qm in every byte), Z0 = qg and Z1 = h (every qword), R8 =
// dominators found, R12 = the running test count, BX = the directory
// chunk's first entry and AX = its entries still to probe, lowest
// first. Masks are one byte a row (8-bit lanes), so 64 rows' masks are
// one 64-byte load and their subset test one VPTESTNMB: K = the rows
// whose mask m has m & ^qm zero, under a clip K6 of the rows in range.
// Code words are tested 8 at a time, (qg − r) & h == h per qword, and
// the 8 results unpacked (KUNPCKBW, KUNPCKWD, KUNPCKDQ) into one 64-bit
// mask.
//
// The directory goes 64 entries a chunk: AX = the entries below np
// whose mask is a subset and, with the skip (bit 1 of flags), whose
// minimum code word passes. Per entry e, rows [lo, hi) = [starts[e],
// starts[e+1]); the next entry's pivot row and first code words are
// prefetched. With level 2 (bit 0 of flags) the pivot row lo is one
// test: GE_OQ of q against it under K7 is q's level-2 mask m2, and when
// m2 is every coordinate, EQ_OQ tells the coincident pivot (the entry
// adds nothing) from a dominating one (one dominator); the scan then
// covers [lo + 1, hi) behind ^m2 (Z11). Without level 2 it covers
// [lo, hi) behind Z12.
//
// The scan goes 64 rows a chunk, aligned to 64 and clipped to the span:
// K0 = the rows whose mask is a subset, K2 = those whose code passes
// (loaded under the clip only, so the loads need not wait for the
// masks). A chunk where no row is in both books the popcount of K0.
// Otherwise the chunk is walked a word at a time in row order, and each
// row of both is float-tested: GT_OQ against q under K7 (worse
// somewhere) rejects it, LT_OQ (better somewhere) makes it a dominator;
// an unordered pair is neither, as in the Go body. The budget-th
// dominator books the chunk's subset rows up to its own and ends the
// probe. Every vector instruction is VEX or EVEX, and the K moves to
// and from general registers are KMOVW and KMOVQ (KMOVB is AVX512DQ,
// outside the gate).
TEXT ·probeDir8(SB), NOSPLIT, $0-128
	MOVQ d+8(FP), CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K7          // K7 = the d coordinate lanes
	MOVQ q+64(FP), AX
	VMOVUPD.Z (AX), K7, Z16
	MOVQ qm+80(FP), AX
	NOTQ AX
	VPBROADCASTB AX, Z12  // Z12 = the bits the probe's mask lacks, every byte
	VPBROADCASTQ qg+88(FP), Z0
	VPBROADCASTQ h+96(FP), Z1
	MOVQ dts+112(FP), AX
	MOVQ (AX), R12
	XORQ R8, R8
	XORQ BX, BX

dirchunk:
	MOVQ np+40(FP), CX
	SUBQ BX, CX           // CX = entries from this chunk on, ≥ 1
	MOVQ $-1, R9
	CMPQ CX, $64
	JGE  dclip
	MOVL $1, R9
	SHLQ CX, R9
	DECQ R9

dclip:
	KMOVQ R9, K6
	MOVQ dir+16(FP), R11
	VMOVDQU8.Z (R11)(BX*1), K6, Z8
	VPTESTNMB Z12, Z8, K6, K0 // K0 = the chunk's entries whose mask is a subset
	MOVQ flags+72(FP), R9
	TESTQ $2, R9
	JZ   dsubsets
	MOVQ dcodes+24(FP), DI
	LEAQ (DI)(BX*8), DI   // DI = &dcodes[BX]
	CODES64
	KANDQ K0, K2, K0      // the skip: only entries whose minimum code passes

dsubsets:
	KMOVQ K0, AX          // AX = the chunk's entries left to probe

dpending:
	TESTQ AX, AX
	JZ   dnext

entry:
	BSFQ AX, CX
	LEAQ -1(AX), R9
	ANDQ R9, AX
	LEAQ (BX)(CX*1), R9   // R9 = the entry
	MOVQ starts+32(FP), R11
	MOVQ (R11)(R9*8), SI  // SI = lo
	MOVQ 8(R11)(R9*8), R13 // R13 = hi
	TESTQ AX, AX
	JZ   noprefetch
	// Fetch the next entry's pivot row and first code words while this
	// one is probed.
	BSFQ AX, CX
	ADDQ BX, CX
	MOVQ (R11)(CX*8), CX
	MOVQ CX, R9
	SHLQ $3, R9
	ADDQ codes+56(FP), R9
	PREFETCHT0 (R9)
	IMULQ d+8(FP), CX
	SHLQ $3, CX
	ADDQ rows+0(FP), CX
	PREFETCHT0 (CX)

noprefetch:
	VMOVDQA64 Z12, Z11    // Z11 = the bits the scan's masks may not have, every byte
	MOVQ flags+72(FP), R9
	TESTQ $1, R9
	JZ   scan
	INCQ R12              // the pivot's test
	MOVQ SI, R9
	IMULQ d+8(FP), R9
	SHLQ $3, R9
	ADDQ rows+0(FP), R9
	VMOVUPD.Z (R9), K7, Z5
	VCMPPD $0x1d, Z5, Z16, K7, K2 // K2 = m2: q ≥ pivot
	INCQ SI
	KXORW K2, K7, K3
	KORTESTW K3, K3
	JNZ  level2
	VCMPPD $0x00, Z5, Z16, K7, K3
	KXORW K3, K7, K3
	KORTESTW K3, K3
	JZ   enext            // q coincides with the pivot
	INCQ R8               // the pivot dominates q
	CMPQ R8, budget+104(FP)
	JGE  done

level2:
	KMOVW K2, R9
	NOTL R9
	VPBROADCASTB R9, Z11

scan:
	CMPQ SI, R13
	JGE  enext
	DECQ R13              // R13 = the last row
	MOVQ SI, CX
	ANDL $63, CX
	MOVQ $-1, R9
	SHLQ CX, R9           // R9 = the clip of the next chunk: the first's
	ANDQ $-64, SI         // SI = the chunk's first row

chunk:
	MOVQ R13, CX
	SUBQ SI, CX
	CMPQ CX, $64
	JGE  clipped
	XORL $63, CX
	MOVQ $-1, R10
	SHRQ CX, R10
	ANDQ R10, R9          // the last chunk ends at the last row

clipped:
	KMOVQ R9, K6
	MOVQ masks+48(FP), R11
	VMOVDQU8.Z (R11)(SI*1), K6, Z8
	VPTESTNMB Z11, Z8, K6, K0 // K0 = the chunk's rows whose mask is a subset
	MOVQ codes+56(FP), DI
	LEAQ (DI)(SI*8), DI   // DI = &codes[SI]
	CODES64
	KTESTQ K0, K2         // a row passes both: test the chunk row by row
	JNZ  rowwise
	KMOVQ K0, R9
	POPCNTQ R9, R9
	ADDQ R9, R12

nextchunk:
	MOVQ $-1, R9
	ADDQ $64, SI
	CMPQ SI, R13
	JLE  chunk

enext:
	TESTQ AX, AX
	JNZ  entry

dnext:
	ADDQ $64, BX
	CMPQ BX, np+40(FP)
	JLT  dirchunk

done:
	MOVQ dts+112(FP), AX
	MOVQ R12, (AX)
	MOVQ R8, ret+120(FP)
	VZEROUPPER
	RET

rowwise:
	// The chunk a word at a time, in row order: each word's rows whose
	// mask is a subset, then those whose code passes, float-tested in
	// ascending order.
	KMOVQ K0, DX          // DX = the chunk's rows whose mask is a subset
	XORL R10, R10         // R10 = the word's first row in the chunk

word:
	MOVQ DX, R9
	MOVQ R10, CX
	SHRQ CX, R9
	ANDL $0xff, R9
	JZ   nextword
	KMOVW R9, K6
	VMOVDQU64.Z (DI)(R10*8), K6, Z2
	VPSUBQ Z2, Z0, Z2
	VPANDQ Z1, Z2, Z2
	VPCMPEQQ Z1, Z2, K6, K6
	KMOVW K6, R9          // R9 = the word's rows whose code passes
	TESTL R9, R9
	JZ   nextword

candidate:
	BSFL R9, CX
	LEAQ (SI)(R10*1), R11
	ADDQ CX, R11          // R11 = the row
	IMULQ d+8(FP), R11
	SHLQ $3, R11
	ADDQ rows+0(FP), R11
	VMOVUPD.Z (R11), K7, Z5
	VCMPPD $0x1e, Z16, Z5, K7, K3 // worse somewhere
	KORTESTW K3, K3
	JNZ  rejected
	VCMPPD $0x11, Z16, Z5, K7, K3 // better somewhere
	KORTESTW K3, K3
	JZ   rejected
	INCQ R8
	CMPQ R8, budget+104(FP)
	JGE  reached

rejected:
	LEAL -1(R9), R11
	ANDL R11, R9
	JNZ  candidate

nextword:
	ADDQ $8, R10
	CMPQ R10, $64
	JLT  word
	POPCNTQ DX, R9
	ADDQ R9, R12
	JMP  nextchunk

reached:
	// Book the chunk's subset rows up to the budget-th dominator's.
	ADDQ R10, CX
	XORL $63, CX
	MOVQ $-1, R9
	SHRQ CX, R9
	ANDQ R9, DX
	POPCNTQ DX, R9
	ADDQ R9, R12
	JMP  done

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
// outside the gate. Between the first ZMM write and VZEROUPPER every
// vector instruction is VEX or EVEX: one legacy-SSE instruction there
// (MOVQ r, X) pays the SSE/AVX transition on every word.
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

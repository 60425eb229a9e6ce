#include "textflag.h"

// func tileAVX2(dst *float64, ldd int, a *float64, lane, kstep int, b *float64, ldb, k, blocks int, bias *float64, mode int)
//
// One 4-lane panel of `blocks` 4×8 blocks (contract in tile.go). Per block,
// Y0–Y7 hold the 32 sums, lane l in Y(2l), Y(2l+1); per k step two loads of
// b feed four broadcast a values. VMULPD then VADDPD, never VFMADD: each sum
// sees the scalar loop's multiply-round-add-round sequence. After the k loop
// (and tileAdd's dst add) a non-nil bias's two 4-wide halves are added onto
// all four lanes before the store. a and k are reloaded for every block;
// dst, b and bias step 8 columns.
TEXT ·tileAVX2(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ lane+24(FP), R9
	MOVQ kstep+32(FP), R10
	MOVQ b+40(FP), AX
	MOVQ ldb+48(FP), R11
	MOVQ blocks+64(FP), R14
	MOVQ bias+72(FP), BX
	SHLQ $3, R8              // strides: elements → bytes
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (R8)(R8*2), R13     // 3·ldd
	LEAQ (R9)(R9*2), R12     // 3·lane

block:
	MOVQ a+16(FP), SI        // every block reads the panel's four lanes from the top
	MOVQ k+56(FP), CX
	MOVQ AX, DX
	CMPQ mode+80(FP), $1     // tileAccum: the sums start from dst
	JNE  zero
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD (DI)(R8*2), Y4
	VMOVUPD 32(DI)(R8*2), Y5
	VMOVUPD (DI)(R13*1), Y6
	VMOVUPD 32(DI)(R13*1), Y7
	JMP  enter

zero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

enter:
	TESTQ CX, CX
	JZ    done

loop:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VBROADCASTSD (SI), Y10
	VBROADCASTSD (SI)(R9*1), Y13
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1
	VMULPD Y8, Y13, Y14
	VMULPD Y9, Y13, Y15
	VADDPD Y14, Y2, Y2
	VADDPD Y15, Y3, Y3
	VBROADCASTSD (SI)(R9*2), Y10
	VBROADCASTSD (SI)(R12*1), Y13
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y4, Y4
	VADDPD Y12, Y5, Y5
	VMULPD Y8, Y13, Y14
	VMULPD Y9, Y13, Y15
	VADDPD Y14, Y6, Y6
	VADDPD Y15, Y7, Y7
	ADDQ R10, SI
	ADDQ R11, DX
	DECQ CX
	JNZ  loop

done:
	CMPQ mode+80(FP), $2     // tileAdd: dst + (sums from zero)
	JNE  addbias
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
	VADDPD (DI)(R8*1), Y2, Y2
	VADDPD 32(DI)(R8*1), Y3, Y3
	VADDPD (DI)(R8*2), Y4, Y4
	VADDPD 32(DI)(R8*2), Y5, Y5
	VADDPD (DI)(R13*1), Y6, Y6
	VADDPD 32(DI)(R13*1), Y7, Y7

addbias:
	TESTQ BX, BX             // nil bias: store the sums as they are
	JZ    store
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VADDPD Y8, Y0, Y0
	VADDPD Y9, Y1, Y1
	VADDPD Y8, Y2, Y2
	VADDPD Y9, Y3, Y3
	VADDPD Y8, Y4, Y4
	VADDPD Y9, Y5, Y5
	VADDPD Y8, Y6, Y6
	VADDPD Y9, Y7, Y7
	ADDQ $64, BX

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (DI)(R8*2)
	VMOVUPD Y5, 32(DI)(R8*2)
	VMOVUPD Y6, (DI)(R13*1)
	VMOVUPD Y7, 32(DI)(R13*1)
	ADDQ $64, DI             // next block: 8 columns on
	ADDQ $64, AX
	DECQ R14
	JNZ  block
	VZEROUPPER
	RET

// func tileAVX512(dst *float64, ldd int, a *float64, lane, kstep int, b *float64, ldb, k, blocks int, bias *float64, mode int)
//
// tileAVX2's panel on 512-bit registers (contract in tile.go). Blocks go two
// at a time: Z0–Z7 hold a pair's 64 sums, lane l in Z(2l) (first block) and
// Z(2l+1) (second); per k step two 8-wide loads of b, the pair's 16 columns
// and no more, feed four broadcast a values. An odd last block takes the same
// steps on Z0–Z3, lane l in Z(l), with one load of b. VMULPD then VADDPD,
// never VFMADD, and a non-nil bias is added after the k loop, as in
// tileAVX2; only the registers differ. Zeroing is VPXORQ, since VXORPD on
// ZMM needs AVX512DQ. PCALIGN puts each k loop on a 64-byte boundary, so the
// loops' placement does not move with unrelated code.
TEXT ·tileAVX512(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ lane+24(FP), R9
	MOVQ kstep+32(FP), R10
	MOVQ b+40(FP), AX
	MOVQ ldb+48(FP), R11
	MOVQ blocks+64(FP), R14
	MOVQ bias+72(FP), BX
	SHLQ $3, R8              // strides: elements → bytes
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (R8)(R8*2), R13     // 3·ldd
	LEAQ (R9)(R9*2), R12     // 3·lane
	CMPQ R14, $2
	JLT  single

pair:
	MOVQ a+16(FP), SI        // every block reads the panel's four lanes from the top
	MOVQ k+56(FP), CX
	MOVQ AX, DX
	CMPQ mode+80(FP), $1     // tileAccum: the sums start from dst
	JNE  pzero
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD (DI)(R8*1), Z2
	VMOVUPD 64(DI)(R8*1), Z3
	VMOVUPD (DI)(R8*2), Z4
	VMOVUPD 64(DI)(R8*2), Z5
	VMOVUPD (DI)(R13*1), Z6
	VMOVUPD 64(DI)(R13*1), Z7
	JMP  penter

pzero:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

penter:
	TESTQ CX, CX
	JZ    pdone
	PCALIGN $64

ploop:
	VMOVUPD (DX), Z8
	VMOVUPD 64(DX), Z9
	VBROADCASTSD (SI), Z10
	VBROADCASTSD (SI)(R9*1), Z13
	VMULPD Z8, Z10, Z11
	VMULPD Z9, Z10, Z12
	VADDPD Z11, Z0, Z0
	VADDPD Z12, Z1, Z1
	VMULPD Z8, Z13, Z14
	VMULPD Z9, Z13, Z15
	VADDPD Z14, Z2, Z2
	VADDPD Z15, Z3, Z3
	VBROADCASTSD (SI)(R9*2), Z10
	VBROADCASTSD (SI)(R12*1), Z13
	VMULPD Z8, Z10, Z11
	VMULPD Z9, Z10, Z12
	VADDPD Z11, Z4, Z4
	VADDPD Z12, Z5, Z5
	VMULPD Z8, Z13, Z14
	VMULPD Z9, Z13, Z15
	VADDPD Z14, Z6, Z6
	VADDPD Z15, Z7, Z7
	ADDQ R10, SI
	ADDQ R11, DX
	DECQ CX
	JNZ  ploop

pdone:
	CMPQ mode+80(FP), $2     // tileAdd: dst + (sums from zero)
	JNE  pbias
	VADDPD (DI), Z0, Z0
	VADDPD 64(DI), Z1, Z1
	VADDPD (DI)(R8*1), Z2, Z2
	VADDPD 64(DI)(R8*1), Z3, Z3
	VADDPD (DI)(R8*2), Z4, Z4
	VADDPD 64(DI)(R8*2), Z5, Z5
	VADDPD (DI)(R13*1), Z6, Z6
	VADDPD 64(DI)(R13*1), Z7, Z7

pbias:
	TESTQ BX, BX             // nil bias: store the sums as they are
	JZ    pstore
	VMOVUPD (BX), Z8
	VMOVUPD 64(BX), Z9
	VADDPD Z8, Z0, Z0
	VADDPD Z9, Z1, Z1
	VADDPD Z8, Z2, Z2
	VADDPD Z9, Z3, Z3
	VADDPD Z8, Z4, Z4
	VADDPD Z9, Z5, Z5
	VADDPD Z8, Z6, Z6
	VADDPD Z9, Z7, Z7
	ADDQ $128, BX

pstore:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (DI)(R8*1)
	VMOVUPD Z3, 64(DI)(R8*1)
	VMOVUPD Z4, (DI)(R8*2)
	VMOVUPD Z5, 64(DI)(R8*2)
	VMOVUPD Z6, (DI)(R13*1)
	VMOVUPD Z7, 64(DI)(R13*1)
	ADDQ $128, DI            // next pair: 16 columns on
	ADDQ $128, AX
	SUBQ $2, R14
	CMPQ R14, $2
	JGE  pair

single:
	TESTQ R14, R14           // no odd block left
	JZ    end
	MOVQ a+16(FP), SI
	MOVQ k+56(FP), CX
	MOVQ AX, DX
	CMPQ mode+80(FP), $1
	JNE  szero
	VMOVUPD (DI), Z0
	VMOVUPD (DI)(R8*1), Z1
	VMOVUPD (DI)(R8*2), Z2
	VMOVUPD (DI)(R13*1), Z3
	JMP  senter

szero:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

senter:
	TESTQ CX, CX
	JZ    sdone
	PCALIGN $64

sloop:
	VMOVUPD (DX), Z8
	VBROADCASTSD (SI), Z10
	VBROADCASTSD (SI)(R9*1), Z11
	VBROADCASTSD (SI)(R9*2), Z12
	VBROADCASTSD (SI)(R12*1), Z13
	VMULPD Z8, Z10, Z10
	VMULPD Z8, Z11, Z11
	VMULPD Z8, Z12, Z12
	VMULPD Z8, Z13, Z13
	VADDPD Z10, Z0, Z0
	VADDPD Z11, Z1, Z1
	VADDPD Z12, Z2, Z2
	VADDPD Z13, Z3, Z3
	ADDQ R10, SI
	ADDQ R11, DX
	DECQ CX
	JNZ  sloop

sdone:
	CMPQ mode+80(FP), $2
	JNE  sbias
	VADDPD (DI), Z0, Z0
	VADDPD (DI)(R8*1), Z1, Z1
	VADDPD (DI)(R8*2), Z2, Z2
	VADDPD (DI)(R13*1), Z3, Z3

sbias:
	TESTQ BX, BX
	JZ    sstore
	VMOVUPD (BX), Z8
	VADDPD Z8, Z0, Z0
	VADDPD Z8, Z1, Z1
	VADDPD Z8, Z2, Z2
	VADDPD Z8, Z3, Z3

sstore:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, (DI)(R8*1)
	VMOVUPD Z2, (DI)(R8*2)
	VMOVUPD Z3, (DI)(R13*1)

end:
	VZEROUPPER
	RET

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

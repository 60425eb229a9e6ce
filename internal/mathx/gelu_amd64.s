#include "textflag.h"

// One constant in all four lanes, so that it can be a memory operand.
#define QUAD(off, v) \
	DATA gelu<>+off+0(SB)/8, v; \
	DATA gelu<>+off+8(SB)/8, v; \
	DATA gelu<>+off+16(SB)/8, v; \
	DATA gelu<>+off+24(SB)/8, v

// The constants of GELUTanh (funcs.go), math.tanh (tanh.go: P, Q, MAXLOG/2)
// and archExp (exp_amd64.s: LOG2E, LN2U, LN2L, the Taylor coefficients 1/8!
// … 1/3!), in the library's spelling.
#define GELUA gelu<>+0(SB)
QUAD(0, $0.044715)
#define GELUC gelu<>+32(SB)
QUAD(32, $0.7978845608028654)
#define TANHP0 gelu<>+64(SB)
QUAD(64, $-9.64399179425052238628e-1)
#define TANHP1 gelu<>+96(SB)
QUAD(96, $-9.92877231001918586564e1)
#define TANHP2 gelu<>+128(SB)
QUAD(128, $-1.61468768441708447952e3)
#define TANHQ0 gelu<>+160(SB)
QUAD(160, $1.12811678491632931402e2)
#define TANHQ1 gelu<>+192(SB)
QUAD(192, $2.23548839060100448583e3)
#define TANHQ2 gelu<>+224(SB)
QUAD(224, $4.84406305325125486048e3)
#define SMALL gelu<>+256(SB)
QUAD(256, $0.625)
#define HALFMAXLOG gelu<>+288(SB)
QUAD(288, $44.014845965556527147994)
#define LOG2E gelu<>+320(SB)
QUAD(320, $1.4426950408889634073599246810018920)
#define LN2U gelu<>+352(SB)
QUAD(352, $0.69314718055966295651160180568695068359375)
#define LN2L gelu<>+384(SB)
QUAD(384, $0.28235290563031577122588448175013436025525412068e-12)
#define SIXTEENTH gelu<>+416(SB)
QUAD(416, $0.0625)
#define EXP8 gelu<>+448(SB)
QUAD(448, $2.4801587301587301587e-5)
#define EXP7 gelu<>+480(SB)
QUAD(480, $1.9841269841269841270e-4)
#define EXP6 gelu<>+512(SB)
QUAD(512, $1.3888888888888888889e-3)
#define EXP5 gelu<>+544(SB)
QUAD(544, $8.3333333333333333333e-3)
#define EXP4 gelu<>+576(SB)
QUAD(576, $4.1666666666666666667e-2)
#define EXP3 gelu<>+608(SB)
QUAD(608, $1.6666666666666666667e-1)
#define HALF gelu<>+640(SB)
QUAD(640, $0.5)
#define ONE gelu<>+672(SB)
QUAD(672, $1.0)
#define TWO gelu<>+704(SB)
QUAD(704, $2.0)
#define SIGN gelu<>+736(SB)
QUAD(736, $0x8000000000000000)
#define BIAS gelu<>+768(SB)
QUAD(768, $0x3FF)
GLOBL gelu<>+0(SB), RODATA, $800

// func geluAVX2(y, t, x *float64, n int)
//
// y[i], t[i] = GELUTanh(x[i]) for i < n, four at a time; n is a positive
// multiple of 4 and t may be nil (contract and operation order in
// gelu_amd64.go). Every VMULPD/VADDPD pair below is a pair the compiler
// leaves unfused in funcs.go and tanh.go, every VF(N)MADD one that archExp's
// avxfma path fuses: the result is the library's only while that holds.
TEXT ·geluAVX2(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ t+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	VMOVUPD ONE, Y14
	VMOVUPD TWO, Y15

loop:
	VMOVUPD (SI), Y0
	VMULPD  GELUA, Y0, Y1    // u = geluC·(x + ((geluA·x)·x)·x)
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  Y1, Y0, Y1
	VMULPD  GELUC, Y1, Y1
	VANDPD  SIGN, Y1, Y3     // tanh is odd: both cases run on z = |u| and
	VXORPD  Y3, Y1, Y2       // the result takes u's sign (Y3) at the end

	// z < 0.625: z + ((z·s)·P(s))/Q(s), s = z², both Horner chains unfused.
	// ±0 and NaN come out of this case as themselves.
	VMULPD  Y2, Y2, Y4
	VMULPD  TANHP0, Y4, Y5
	VADDPD  TANHP1, Y5, Y5
	VMULPD  Y4, Y5, Y5
	VADDPD  TANHP2, Y5, Y5
	VADDPD  TANHQ0, Y4, Y6
	VMULPD  Y4, Y6, Y6
	VADDPD  TANHQ1, Y6, Y6
	VMULPD  Y4, Y6, Y6
	VADDPD  TANHQ2, Y6, Y6
	VMULPD  Y4, Y2, Y7
	VMULPD  Y5, Y7, Y7
	VDIVPD  Y6, Y7, Y7
	VADDPD  Y7, Y2, Y7

	// z ≥ 0.625: 1 − 2/(e + 1), e = exp(v), v = 2·min(z, MAXLOG/2). Past the
	// clamp e ≥ 2¹²⁷ and the quotient vanishes under 1, which is the
	// library's ±1; under it k ≤ 127 and the exponent built below cannot
	// overflow.
	VMINPD  HALFMAXLOG, Y2, Y4
	VADDPD  Y4, Y4, Y4
	VMULPD  LOG2E, Y4, Y5
	VCVTPD2DQY Y5, X6        // k = LOG2E·v to the nearest even, as CVTSD2SL
	VCVTDQ2PD  X6, Y5
	VFNMADD231PD LN2U, Y5, Y4 // v − k·LN2U − k·LN2L
	VFNMADD231PD LN2L, Y5, Y4
	VMULPD  SIXTEENTH, Y4, Y4 // r = that/16
	VMOVUPD EXP8, Y5
	VFMADD213PD EXP7, Y4, Y5 // Taylor series of (eʳ − 1)/r
	VFMADD213PD EXP6, Y4, Y5
	VFMADD213PD EXP5, Y4, Y5
	VFMADD213PD EXP4, Y4, Y5
	VFMADD213PD EXP3, Y4, Y5
	VFMADD213PD HALF, Y4, Y5
	VFMADD213PD Y14, Y4, Y5
	VMULPD  Y5, Y4, Y4       // r = eʳ − 1
	VADDPD  Y15, Y4, Y5      // three times r = r·(r + 2): e²ʳ − 1, …
	VMULPD  Y5, Y4, Y4
	VADDPD  Y15, Y4, Y5
	VMULPD  Y5, Y4, Y4
	VADDPD  Y15, Y4, Y5
	VMULPD  Y5, Y4, Y4
	VADDPD  Y15, Y4, Y5
	VFMADD213PD Y14, Y5, Y4  // (r + 2)·r + 1 = e¹⁶ʳ
	VPMOVSXDQ X6, Y6         // 2ᵏ: (k + bias) << 52
	VPADDQ  BIAS, Y6, Y6
	VPSLLQ  $52, Y6, Y6
	VMULPD  Y6, Y4, Y4       // e
	VADDPD  Y14, Y4, Y4
	VDIVPD  Y4, Y15, Y4
	VSUBPD  Y4, Y14, Y4

	VCMPPD  $0x1D, SMALL, Y2, Y5 // z ≥ 0.625; false for NaN
	VBLENDVPD Y5, Y4, Y7, Y4
	VORPD   Y3, Y4, Y4       // t = tanh(u)
	VMULPD  HALF, Y0, Y5     // y = (0.5·x)·(1 + t)
	VADDPD  Y14, Y4, Y6
	VMULPD  Y6, Y5, Y5
	VMOVUPD Y5, (DI)
	TESTQ   DX, DX
	JZ      next
	VMOVUPD Y4, (DX)
	ADDQ    $32, DX

next:
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  loop
	VZEROUPPER
	RET

// func CPUFeatures() (avx2, fma, avx512f bool)
//
// The YMM registers are usable when CPUID.1:ECX reports OSXSAVE and AVX and
// XCR0 shows the OS saving XMM and YMM state; then CPUID.1:ECX bit 12 is FMA
// and CPUID.7:EBX bit 5 is AVX2. The ZMM registers are usable when XCR0 also
// shows opmask, ZMM_Hi256 and Hi16_ZMM state saved; then CPUID.7:EBX bit 16
// is AVX-512F.
TEXT ·CPUFeatures(SB), NOSPLIT, $0-3
	MOVB $0, avx2+0(FP)
	MOVB $0, fma+1(FP)
	MOVB $0, avx512f+2(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $0x18000000, CX     // OSXSAVE (27) | AVX (28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	MOVL AX, R9
	ANDL $6, AX              // XCR0: SSE (1) | AVX (2) state enabled
	CMPL AX, $6
	JNE  no
	SHRL $12, R8
	ANDL $1, R8
	MOVB R8, fma+1(FP)
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, R8
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, avx2+0(FP)
	ANDL $0xE6, R9           // XCR0: also opmask (5) | ZMM_Hi256 (6) | Hi16_ZMM (7)
	CMPL R9, $0xE6
	JNE  no
	SHRL $16, R8
	ANDL $1, R8
	MOVB R8, avx512f+2(FP)
no:
	RET

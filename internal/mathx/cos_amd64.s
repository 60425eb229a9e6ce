#include "textflag.h"

// One constant in all four lanes, so that it can be a memory operand.
#define QUAD(off, v) \
	DATA trig<>+off+0(SB)/8, v; \
	DATA trig<>+off+8(SB)/8, v; \
	DATA trig<>+off+16(SB)/8, v; \
	DATA trig<>+off+24(SB)/8, v

// The constants of trigOctant (trig.go) — math.cos's and math.sin's — in
// the library's spelling; FOUROPI is the float64 the compiler makes of 4/π.
#define FOUROPI trig<>+0(SB)
QUAD(0, $1.2732395447351628)
#define PI4A trig<>+32(SB)
QUAD(32, $7.85398125648498535156e-1)
#define PI4B trig<>+64(SB)
QUAD(64, $3.77489470793079817668e-8)
#define PI4C trig<>+96(SB)
QUAD(96, $2.69515142907905952645e-15)
#define SIN0 trig<>+128(SB)
QUAD(128, $1.58962301576546568060e-10)
#define SIN1 trig<>+160(SB)
QUAD(160, $-2.50507477628578072866e-8)
#define SIN2 trig<>+192(SB)
QUAD(192, $2.75573136213857245213e-6)
#define SIN3 trig<>+224(SB)
QUAD(224, $-1.98412698295895385996e-4)
#define SIN4 trig<>+256(SB)
QUAD(256, $8.33333333332211858878e-3)
#define SIN5 trig<>+288(SB)
QUAD(288, $-1.66666666666666307295e-1)
#define COS0 trig<>+320(SB)
QUAD(320, $-1.13585365213876817300e-11)
#define COS1 trig<>+352(SB)
QUAD(352, $2.08757008419747316778e-9)
#define COS2 trig<>+384(SB)
QUAD(384, $-2.75573141792967388112e-7)
#define COS3 trig<>+416(SB)
QUAD(416, $2.48015872888517045348e-5)
#define COS4 trig<>+448(SB)
QUAD(448, $-1.38888888888730564116e-3)
#define COS5 trig<>+480(SB)
QUAD(480, $4.16666666666665929218e-2)
#define THRESHOLD trig<>+512(SB)
QUAD(512, $536870912.0)
#define HALF trig<>+544(SB)
QUAD(544, $0.5)
#define ONE trig<>+576(SB)
QUAD(576, $1.0)
#define SIGN trig<>+608(SB)
QUAD(608, $0x8000000000000000)
#define ABS trig<>+640(SB)
QUAD(640, $0x7FFFFFFFFFFFFFFF)
#define INT1 trig<>+672(SB)
QUAD(672, $0x0000000100000001)
GLOBL trig<>+0(SB), RODATA, $704

// func trigAVX2(cos, sin, x *float64, n int) (done int)
//
// cos[i] = math.Cos(x[i]) and, unless sin is nil, sin[i] = math.Sin(x[i]),
// four at a time, until a group holds a lane with !(|x| < 2²⁹) — that group
// is left unread and unwritten, and done is the count before it (n when
// there is none). n is a positive multiple of 4; cos may be x. Each lane is
// trigOctant's arithmetic in trigOctant's order, every multiply and add
// rounded on its own, as the amd64 compiler emits them (contract in
// cos_amd64.go).
TEXT ·trigAVX2(SB), NOSPLIT, $0-40
	MOVQ cos+0(FP), DI
	MOVQ sin+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	MOVQ CX, R8
	VMOVUPD ONE, Y14
	VMOVUPD SIGN, Y15

loop:
	VMOVUPD (SI), Y0
	VANDPD  ABS, Y0, Y1          // ax = |x|
	VCMPPD  $0x11, THRESHOLD, Y1, Y2 // ax < 2²⁹; false for NaN
	VMOVMSKPD Y2, AX
	CMPL    AX, $15
	JNE     stop

	// j = int(ax·4/π); j += j&1; y = float64(j). j < 2³¹, so the 32-bit
	// truncation is the library's conversion.
	VMULPD  FOUROPI, Y1, Y2
	VCVTTPD2DQY Y2, X3
	VPAND   INT1, X3, X4
	VPADDD  X4, X3, X3
	VCVTDQ2PD X3, Y4
	VPMOVSXDQ X3, Y3             // j, 64 bits a lane, for the masks below

	// z = ((ax − y·PI4A) − y·PI4B) − y·PI4C, zz = z·z
	VMULPD  PI4A, Y4, Y5
	VSUBPD  Y5, Y1, Y5
	VMULPD  PI4B, Y4, Y6
	VSUBPD  Y6, Y5, Y5
	VMULPD  PI4C, Y4, Y6
	VSUBPD  Y6, Y5, Y5
	VMULPD  Y5, Y5, Y6

	// c = (1 − 0.5·zz) + (zz·zz)·((((((COS0·zz)+COS1)·zz+COS2)·zz+COS3)·zz+COS4)·zz+COS5)
	VMULPD  COS0, Y6, Y7
	VADDPD  COS1, Y7, Y7
	VMULPD  Y6, Y7, Y7
	VADDPD  COS2, Y7, Y7
	VMULPD  Y6, Y7, Y7
	VADDPD  COS3, Y7, Y7
	VMULPD  Y6, Y7, Y7
	VADDPD  COS4, Y7, Y7
	VMULPD  Y6, Y7, Y7
	VADDPD  COS5, Y7, Y7
	VMULPD  Y6, Y6, Y8
	VMULPD  Y7, Y8, Y7
	VMULPD  HALF, Y6, Y8
	VSUBPD  Y8, Y14, Y8
	VADDPD  Y7, Y8, Y7

	// s = z + (z·zz)·((((((SIN0·zz)+SIN1)·zz+SIN2)·zz+SIN3)·zz+SIN4)·zz+SIN5)
	VMULPD  SIN0, Y6, Y9
	VADDPD  SIN1, Y9, Y9
	VMULPD  Y6, Y9, Y9
	VADDPD  SIN2, Y9, Y9
	VMULPD  Y6, Y9, Y9
	VADDPD  SIN3, Y9, Y9
	VMULPD  Y6, Y9, Y9
	VADDPD  SIN4, Y9, Y9
	VMULPD  Y6, Y9, Y9
	VADDPD  SIN5, Y9, Y9
	VMULPD  Y6, Y5, Y10
	VMULPD  Y9, Y10, Y9
	VADDPD  Y9, Y5, Y9

	// q = (j>>1)&3: bit 1 of j (odd quadrant) picks the other polynomial,
	// bit 1 ^ bit 2 negates the cosine.
	VPSLLQ  $62, Y3, Y10         // sign bit: q&1
	VPSLLQ  $61, Y3, Y11         // sign bit: q>>1
	VBLENDVPD Y10, Y9, Y7, Y12
	VXORPD  Y11, Y10, Y13
	VANDPD  Y15, Y13, Y13
	VXORPD  Y13, Y12, Y12
	VMOVUPD Y12, (DI)
	TESTQ   DX, DX
	JZ      next

	// The sine takes the cosine polynomial in odd quadrants and negates
	// for q>>1 and for x's own sign bit.
	VBLENDVPD Y10, Y7, Y9, Y12
	VXORPD  Y0, Y11, Y13
	VANDPD  Y15, Y13, Y13
	VXORPD  Y13, Y12, Y12
	VMOVUPD Y12, (DX)
	ADDQ    $32, DX

next:
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  loop

stop:
	SUBQ CX, R8
	MOVQ R8, done+32(FP)
	VZEROUPPER
	RET

#include "textflag.h"

// The AVX2 bodies of MatVec4 and OuterAccumMatTVec4. Every lane of every
// vector instruction below runs the same IEEE operations, in the same
// order, as one iteration of the Go kernels in vecf.go: a float32→float64
// conversion is exact, VMULPD/VMULPS and VADDPD/VADDPS round once each
// (there is no FMA here), and VCVTPD2PS rounds to nearest even under the
// MXCSR the Go runtime leaves at its default, as Go's float32() does. So
// the results are bit-identical to the Go kernels. BP is never written.

// TRANSPOSE4 transposes the 4x4 float32 matrix whose rows are r0..r3 in
// place, using t0..t3 as scratch.
#define TRANSPOSE4(r0, r1, r2, r3, t0, t1, t2, t3) \
	VUNPCKLPS r1, r0, t0; \
	VUNPCKHPS r1, r0, t1; \
	VUNPCKLPS r3, r2, t2; \
	VUNPCKHPS r3, r2, t3; \
	VUNPCKLPD t2, t0, r0; \
	VUNPCKHPD t2, t0, r1; \
	VUNPCKLPD t3, t1, r2; \
	VUNPCKHPD t3, t1, r3

// MV4ROW adds four columns' terms to one row's four sums: acc holds the
// row's sum for each of the four vectors, Y4..Y7 hold columns CX..CX+3 of
// the four vectors as float64, and p points at the row of W.
#define MV4ROW(p, acc) \
	VCVTPS2PD (p)(CX*4), Y8; \
	VPERMPD $0x00, Y8, Y9; \
	VMULPD Y4, Y9, Y9; \
	VADDPD Y9, acc, acc; \
	VPERMPD $0x55, Y8, Y9; \
	VMULPD Y5, Y9, Y9; \
	VADDPD Y9, acc, acc; \
	VPERMPD $0xaa, Y8, Y9; \
	VMULPD Y6, Y9, Y9; \
	VADDPD Y9, acc, acc; \
	VPERMPD $0xff, Y8, Y9; \
	VMULPD Y7, Y9, Y9; \
	VADDPD Y9, acc, acc

// MV4COL adds column CX's term to one row's four sums: Y4 holds column CX
// of the four vectors as float64.
#define MV4COL(p, acc) \
	VCVTSS2SD (p)(CX*4), X8, X8; \
	VBROADCASTSD X8, Y8; \
	VMULPD Y4, Y8, Y8; \
	VADDPD Y8, acc, acc

// func matVec4AVX2(y *[4][]float32, w []float32, r, c int, x *[4][]float32)
//
// Rows 0..r-1 of MatVec4, four rows at a time; r is a multiple of 4. The
// sums of a row block sit in Y0..Y3, one register per row and one float64
// lane per vector.
TEXT ·matVec4AVX2(SB), NOSPLIT, $0-56
	MOVQ x+48(FP), AX
	MOVQ 0(AX), R8
	MOVQ 24(AX), R9
	MOVQ 48(AX), R10
	MOVQ 72(AX), R11
	MOVQ w_base+8(FP), SI
	MOVQ c+40(FP), DX
	MOVQ DX, R14
	ANDQ $-4, R14 // the columns of whole 4-column blocks
	XORQ BX, BX   // the block's first row

mvRows:
	CMPQ BX, r+32(FP)
	JGE  mvDone
	LEAQ (SI)(DX*4), DI
	LEAQ (DI)(DX*4), R12
	LEAQ (R12)(DX*4), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ CX, CX

mvBlock:
	CMPQ CX, R14
	JGE  mvTail
	VMOVUPS (R8)(CX*4), X4
	VMOVUPS (R9)(CX*4), X5
	VMOVUPS (R10)(CX*4), X6
	VMOVUPS (R11)(CX*4), X7
	TRANSPOSE4(X4, X5, X6, X7, X8, X9, X10, X11)
	VCVTPS2PD X4, Y4
	VCVTPS2PD X5, Y5
	VCVTPS2PD X6, Y6
	VCVTPS2PD X7, Y7
	MV4ROW(SI, Y0)
	MV4ROW(DI, Y1)
	MV4ROW(R12, Y2)
	MV4ROW(R13, Y3)
	ADDQ $4, CX
	JMP  mvBlock

mvTail:
	CMPQ CX, DX
	JGE  mvStore
	VMOVSS    (R8)(CX*4), X4
	VINSERTPS $0x10, (R9)(CX*4), X4, X4
	VINSERTPS $0x20, (R10)(CX*4), X4, X4
	VINSERTPS $0x30, (R11)(CX*4), X4, X4
	VCVTPS2PD X4, Y4
	MV4COL(SI, Y0)
	MV4COL(DI, Y1)
	MV4COL(R12, Y2)
	MV4COL(R13, Y3)
	INCQ CX
	JMP  mvTail

mvStore:
	VCVTPD2PSY Y0, X0
	VCVTPD2PSY Y1, X1
	VCVTPD2PSY Y2, X2
	VCVTPD2PSY Y3, X3
	TRANSPOSE4(X0, X1, X2, X3, X8, X9, X10, X11)
	MOVQ    y+0(FP), AX
	MOVQ    0(AX), CX
	VMOVUPS X0, (CX)(BX*4)
	MOVQ    24(AX), CX
	VMOVUPS X1, (CX)(BX*4)
	MOVQ    48(AX), CX
	VMOVUPS X2, (CX)(BX*4)
	MOVQ    72(AX), CX
	VMOVUPS X3, (CX)(BX*4)
	ADDQ    $4, BX
	LEAQ    (R13)(DX*4), SI
	JMP     mvRows

mvDone:
	VZEROUPPER
	RET

// tailmask<>+32-4t is the VMASKMOVPS mask of a t-column strip tail.
DATA tailmask<>+0(SB)/8, $0xffffffffffffffff
DATA tailmask<>+8(SB)/8, $0xffffffffffffffff
DATA tailmask<>+16(SB)/8, $0xffffffffffffffff
DATA tailmask<>+24(SB)/8, $0xffffffffffffffff
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// OAROW runs one 8-column strip of a fused row: g's strip adds its four
// terms in k order, then each z[k]'s strip adds its term. load is VMOVUPS
// or VMASKMOVPS's load (with the Y12 mask), store likewise.
#define OAROW(load, store) \
	load(R8, Y9); \
	VMULPS Y0, Y9, Y9; \
	load(SI, Y8); \
	VADDPS Y8, Y9, Y8; \
	load(R9, Y9); \
	VMULPS Y1, Y9, Y9; \
	VADDPS Y8, Y9, Y8; \
	load(R10, Y9); \
	VMULPS Y2, Y9, Y9; \
	VADDPS Y8, Y9, Y8; \
	load(R11, Y9); \
	VMULPS Y3, Y9, Y9; \
	VADDPS Y8, Y9, Y8; \
	store(Y8, SI); \
	load(DI, Y10); \
	VMULPS Y4, Y10, Y9; \
	load(R12, Y11); \
	VADDPS Y11, Y9, Y9; \
	store(Y9, R12); \
	VMULPS Y5, Y10, Y9; \
	load(R13, Y11); \
	VADDPS Y11, Y9, Y9; \
	store(Y9, R13); \
	VMULPS Y6, Y10, Y9; \
	load(R14, Y11); \
	VADDPS Y11, Y9, Y9; \
	store(Y9, R14); \
	VMULPS Y7, Y10, Y9; \
	load(BX, Y11); \
	VADDPS Y11, Y9, Y9; \
	store(Y9, BX)

#define LOADU(p, v) VMOVUPS (p)(CX*4), v
#define STOREU(v, p) VMOVUPS v, (p)(CX*4)
#define LOADM(p, v) VMASKMOVPS (p)(CX*4), Y12, v
#define STOREM(v, p) VMASKMOVPS v, Y12, (p)(CX*4)

// func outerAccumMatTVec4AVX2(g, w []float32, i, r, c int, a float32, x, y, z *[4][]float32) int
//
// Rows i..r-1 of OuterAccumMatTVec4's fused loop, eight columns per
// strip. It returns the first row at or after i that has a skipped term,
// or r. Y0..Y3 hold a*x[k][row] and Y4..Y7 x[k][row], broadcast.
TEXT ·outerAccumMatTVec4AVX2(SB), NOSPLIT, $0-112
	MOVQ y+88(FP), AX
	MOVQ 0(AX), R8
	MOVQ 24(AX), R9
	MOVQ 48(AX), R10
	MOVQ 72(AX), R11
	MOVQ z+96(FP), AX
	MOVQ 0(AX), R12
	MOVQ 24(AX), R13
	MOVQ 48(AX), R14
	MOVQ 72(AX), BX
	MOVQ i+48(FP), DX
	MOVQ c+64(FP), AX
	IMULQ DX, AX
	MOVQ g_base+0(FP), SI
	LEAQ (SI)(AX*4), SI
	MOVQ w_base+24(FP), DI
	LEAQ (DI)(AX*4), DI
	VBROADCASTSS a+72(FP), Y15
	MOVQ    c+64(FP), AX
	ANDQ    $7, AX
	NEGQ    AX
	LEAQ    tailmask<>+32(SB), CX
	VMOVUPS (CX)(AX*4), Y12

oaRows:
	CMPQ DX, r+56(FP)
	JGE  oaDone
	MOVQ x+80(FP), AX
	MOVQ 0(AX), CX
	VBROADCASTSS (CX)(DX*4), Y4
	MOVQ 24(AX), CX
	VBROADCASTSS (CX)(DX*4), Y5
	MOVQ 48(AX), CX
	VBROADCASTSS (CX)(DX*4), Y6
	MOVQ 72(AX), CX
	VBROADCASTSS (CX)(DX*4), Y7
	VMULPS Y4, Y15, Y0
	VMULPS Y5, Y15, Y1
	VMULPS Y6, Y15, Y2
	VMULPS Y7, Y15, Y3

	// Leave the loop at a row where some a*x[k][row] or x[k][row] is
	// zero: the caller runs it on the 1-wide kernels. NaN is not zero.
	VUNPCKLPS X1, X0, X9
	VUNPCKLPS X3, X2, X10
	VUNPCKLPD X10, X9, X9
	VUNPCKLPS X5, X4, X10
	VUNPCKLPS X7, X6, X11
	VUNPCKLPD X11, X10, X10
	VXORPS    X8, X8, X8
	VCMPPS    $0, X8, X9, X9
	VCMPPS    $0, X8, X10, X10
	VORPS     X10, X9, X9
	VMOVMSKPS X9, AX
	TESTL     AX, AX
	JNZ       oaDone

	MOVQ c+64(FP), AX
	ANDQ $-8, AX // the columns of whole 8-column strips
	XORQ CX, CX

oaStrip:
	CMPQ CX, AX
	JGE  oaTail
	OAROW(LOADU, STOREU)
	ADDQ $8, CX
	JMP  oaStrip

oaTail:
	CMPQ CX, c+64(FP)
	JGE  oaNext
	OAROW(LOADM, STOREM)

oaNext:
	INCQ DX
	MOVQ c+64(FP), AX
	LEAQ (SI)(AX*4), SI
	LEAQ (DI)(AX*4), DI
	JMP  oaRows

oaDone:
	MOVQ DX, ret+104(FP)
	VZEROUPPER
	RET

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

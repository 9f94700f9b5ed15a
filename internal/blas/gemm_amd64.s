//go:build amd64 && !purego

#include "textflag.h"

// func dgemm8x4asm(kc int64, a, b, c *float64, ldc int64)
//
// C[r + q*ldc] += sum_k a[8k+r] * b[4k+q] for r in [0,8), q in [0,4).
// a is an mr=8 packed micro-panel (k-major stripes of 8), b an nr=4 packed
// micro-panel (k-major stripes of 4); see gemm_packed.go for the layout.
// Eight ymm accumulators hold the full 8x4 tile across the k loop; each
// iteration issues 2 vector loads, 4 broadcasts and 8 FMAs (64 flops).
TEXT ·dgemm8x4asm(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8              // ldc in bytes

	VXORPD Y0, Y0, Y0        // C[0:4, 0]
	VXORPD Y1, Y1, Y1        // C[4:8, 0]
	VXORPD Y2, Y2, Y2        // C[0:4, 1]
	VXORPD Y3, Y3, Y3        // C[4:8, 1]
	VXORPD Y4, Y4, Y4        // C[0:4, 2]
	VXORPD Y5, Y5, Y5        // C[4:8, 2]
	VXORPD Y6, Y6, Y6        // C[0:4, 3]
	VXORPD Y7, Y7, Y7        // C[4:8, 3]

	TESTQ CX, CX
	JE    write

	// The loop top sits on a cache-line boundary in every build, so the
	// kernel's rate does not move with what the linker placed before it.
	PCALIGN $64
loop:
	VMOVUPD      (SI), Y8    // a[0:4]
	VMOVUPD      32(SI), Y9  // a[4:8]
	VBROADCASTSD (DI), Y10   // b[0]
	VBROADCASTSD 8(DI), Y11  // b[1]
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD 16(DI), Y12 // b[2]
	VBROADCASTSD 24(DI), Y13 // b[3]
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         $64, SI
	ADDQ         $32, DI
	DECQ         CX
	JNE          loop

write:
	MOVQ    DX, R9
	VMOVUPD (R9), Y8
	VADDPD  Y0, Y8, Y8
	VMOVUPD Y8, (R9)
	VMOVUPD 32(R9), Y9
	VADDPD  Y1, Y9, Y9
	VMOVUPD Y9, 32(R9)
	ADDQ    R8, R9
	VMOVUPD (R9), Y8
	VADDPD  Y2, Y8, Y8
	VMOVUPD Y8, (R9)
	VMOVUPD 32(R9), Y9
	VADDPD  Y3, Y9, Y9
	VMOVUPD Y9, 32(R9)
	ADDQ    R8, R9
	VMOVUPD (R9), Y8
	VADDPD  Y4, Y8, Y8
	VMOVUPD Y8, (R9)
	VMOVUPD 32(R9), Y9
	VADDPD  Y5, Y9, Y9
	VMOVUPD Y9, 32(R9)
	ADDQ    R8, R9
	VMOVUPD (R9), Y8
	VADDPD  Y6, Y8, Y8
	VMOVUPD Y8, (R9)
	VMOVUPD 32(R9), Y9
	VADDPD  Y7, Y9, Y9
	VMOVUPD Y9, 32(R9)
	VZEROUPPER
	RET

// func dgemm8x8asm(kc int64, a, b, c *float64, ldc int64)
//
// C[r + q*ldc] += sum_k a[8k+r] * b[8k+q] for r, q in [0,8): the AVX-512
// kernel. a is the same mr=8 packed micro-panel dgemm8x4asm reads, b an nr=8
// one. Eight zmm accumulators, one per C column, hold the tile across the k
// loop; a k step is one 64-byte load of a and eight FMAs that broadcast
// their b element from memory (128 flops). Element (r, q) sees the FMA chain
// over k from zero and the one add into C that it sees in dgemm8x4asm, so
// the two kernels store the same bits.
TEXT ·dgemm8x8asm(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8              // ldc in bytes

	VPXORQ Z0, Z0, Z0        // C[0:8, 0]
	VPXORQ Z1, Z1, Z1        // C[0:8, 1]
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7        // C[0:8, 7]

	TESTQ CX, CX
	JE    write8

	PCALIGN $64
loop8:
	VMOVUPD          (SI), Z8 // a[0:8]
	VFMADD231PD.BCST (DI), Z8, Z0
	VFMADD231PD.BCST 8(DI), Z8, Z1
	VFMADD231PD.BCST 16(DI), Z8, Z2
	VFMADD231PD.BCST 24(DI), Z8, Z3
	VFMADD231PD.BCST 32(DI), Z8, Z4
	VFMADD231PD.BCST 40(DI), Z8, Z5
	VFMADD231PD.BCST 48(DI), Z8, Z6
	VFMADD231PD.BCST 56(DI), Z8, Z7
	ADDQ             $64, SI
	ADDQ             $64, DI
	DECQ             CX
	JNE              loop8

write8:
	LEAQ    (R8)(R8*2), R9   // 3 columns of C, in bytes
	LEAQ    (DX)(R8*4), R10  // column 4
	VADDPD  (DX), Z0, Z0
	VADDPD  (DX)(R8*1), Z1, Z1
	VADDPD  (DX)(R8*2), Z2, Z2
	VADDPD  (DX)(R9*1), Z3, Z3
	VADDPD  (R10), Z4, Z4
	VADDPD  (R10)(R8*1), Z5, Z5
	VADDPD  (R10)(R8*2), Z6, Z6
	VADDPD  (R10)(R9*1), Z7, Z7
	VMOVUPD Z0, (DX)
	VMOVUPD Z1, (DX)(R8*1)
	VMOVUPD Z2, (DX)(R8*2)
	VMOVUPD Z3, (DX)(R9*1)
	VMOVUPD Z4, (R10)
	VMOVUPD Z5, (R10)(R8*1)
	VMOVUPD Z6, (R10)(R8*2)
	VMOVUPD Z7, (R10)(R9*1)
	VZEROUPPER
	RET

// The six stride-1 kernels below make their results a function of (n,
// values) alone: every load and store is unaligned (no peeling on the
// address), a vector's element count (and the transposing pack's kc) is
// consumed as the widest blocks first and scalars last, in an order that
// depends on the count only, and a count of 0 never reaches them (the Go
// wrappers in gemm_amd64.go check extents first). The hot loops of axpy,
// axpyCols, dot and the reflector update start on a cache-line boundary, as
// the micro-kernels' k loops do, so their rate does not move with the
// linker's placement.

// func axpyAVX2(n int64, alpha float64, x, y *float64)
//
// y[i] = fma(alpha, x[i], y[i]) for i in [0, n): one rounding per element,
// in the vector blocks and in the scalar tail alike.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	MOVQ         n+0(FP), CX
	VBROADCASTSD alpha+8(FP), Y0
	MOVQ         x+16(FP), SI
	MOVQ         y+24(FP), DI
	SUBQ         $16, CX
	JL           axpy4

	PCALIGN $64
axpy16:
	VMOVUPD     (DI), Y1
	VMOVUPD     32(DI), Y2
	VMOVUPD     64(DI), Y3
	VMOVUPD     96(DI), Y4
	VFMADD231PD (SI), Y0, Y1
	VFMADD231PD 32(SI), Y0, Y2
	VFMADD231PD 64(SI), Y0, Y3
	VFMADD231PD 96(SI), Y0, Y4
	VMOVUPD     Y1, (DI)
	VMOVUPD     Y2, 32(DI)
	VMOVUPD     Y3, 64(DI)
	VMOVUPD     Y4, 96(DI)
	ADDQ        $128, SI
	ADDQ        $128, DI
	SUBQ        $16, CX
	JGE         axpy16

axpy4:
	ADDQ $12, CX
	JL   axpy1

axpy4loop:
	VMOVUPD     (DI), Y1
	VFMADD231PD (SI), Y0, Y1
	VMOVUPD     Y1, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $4, CX
	JGE         axpy4loop

axpy1:
	ADDQ $4, CX
	JE   axpydone

axpy1loop:
	VMOVSD      (DI), X1
	VFMADD231SD (SI), X0, X1
	VMOVSD      X1, (DI)
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JNE         axpy1loop

axpydone:
	VZEROUPPER
	RET

// func axpyColsAVX2(n, m int64, a *float64, lda int64, x *float64, incx int64, y0 *float64, incy0 int64, scale float64, y *float64)
//
// y[i] = scale * (y0[i*incy0] + sum_t x[t*incx]*a[t*lda+i]) for i in
// [0, n): each element's chain is fma(x[t*incx], a[t*lda+i], .) for t in
// [0, m) ascending, skipping every t whose x[t*incx] is ±0 — the m
// axpyAVX2 calls Axpy would make, bit for bit — then one multiply by scale.
// A row block is loaded from y0 once (four contiguous loads, or sixteen
// strided ones when incy0 is not 1), held in registers across t, scaled
// there and stored to y once; y0 may be y itself. Rows go as 16-row blocks
// (four ymm accumulators), then 4-row blocks, then single rows; m = 0 is
// the gather and the scaling alone. The
// zero test is on the bits with the sign shifted out, so a NaN coefficient
// is never skipped.
TEXT ·axpyColsAVX2(SB), NOSPLIT, $0-80
	MOVQ         n+0(FP), CX
	MOVQ         a+16(FP), SI
	MOVQ         lda+24(FP), R8
	MOVQ         x+32(FP), DX
	MOVQ         incx+40(FP), R9
	MOVQ         y0+48(FP), R13
	MOVQ         incy0+56(FP), BX
	VBROADCASTSD scale+64(FP), Y5
	MOVQ         y+72(FP), DI
	SHLQ         $3, R8      // lda in bytes
	SHLQ         $3, R9      // incx in bytes
	SHLQ         $3, BX      // incy0 in bytes
	SUBQ         $16, CX
	JL           acols4

acols16:
	CMPQ    BX, $8
	JNE     acols16strided
	VMOVUPD (R13), Y0
	VMOVUPD 32(R13), Y1
	VMOVUPD 64(R13), Y2
	VMOVUPD 96(R13), Y3
	ADDQ    $128, R13
	JMP     acols16run

acols16strided:
	MOVQ        R13, AX
	VMOVSD      (AX), X0
	VMOVHPD     (AX)(BX*1), X0, X0
	LEAQ        (AX)(BX*2), AX
	VMOVSD      (AX), X6
	VMOVHPD     (AX)(BX*1), X6, X6
	LEAQ        (AX)(BX*2), AX
	VINSERTF128 $1, X6, Y0, Y0
	VMOVSD      (AX), X1
	VMOVHPD     (AX)(BX*1), X1, X1
	LEAQ        (AX)(BX*2), AX
	VMOVSD      (AX), X6
	VMOVHPD     (AX)(BX*1), X6, X6
	LEAQ        (AX)(BX*2), AX
	VINSERTF128 $1, X6, Y1, Y1
	VMOVSD      (AX), X2
	VMOVHPD     (AX)(BX*1), X2, X2
	LEAQ        (AX)(BX*2), AX
	VMOVSD      (AX), X6
	VMOVHPD     (AX)(BX*1), X6, X6
	LEAQ        (AX)(BX*2), AX
	VINSERTF128 $1, X6, Y2, Y2
	VMOVSD      (AX), X3
	VMOVHPD     (AX)(BX*1), X3, X3
	LEAQ        (AX)(BX*2), AX
	VMOVSD      (AX), X6
	VMOVHPD     (AX)(BX*1), X6, X6
	LEAQ        (AX)(BX*2), AX
	VINSERTF128 $1, X6, Y3, Y3
	MOVQ        AX, R13

acols16run:
	MOVQ  SI, R10            // a[t*lda + block]
	MOVQ  DX, R11            // x[t*incx]
	MOVQ  m+8(FP), R12       // columns left
	TESTQ R12, R12
	JEQ   acols16store

	PCALIGN $64
acols16t:
	MOVQ         (R11), AX
	SHLQ         $1, AX
	JEQ          acols16skip
	VBROADCASTSD (R11), Y4
	VFMADD231PD  (R10), Y4, Y0
	VFMADD231PD  32(R10), Y4, Y1
	VFMADD231PD  64(R10), Y4, Y2
	VFMADD231PD  96(R10), Y4, Y3

acols16skip:
	ADDQ    R8, R10
	ADDQ    R9, R11
	DECQ    R12
	JNE     acols16t

acols16store:
	VMULPD  Y5, Y0, Y0
	VMULPD  Y5, Y1, Y1
	VMULPD  Y5, Y2, Y2
	VMULPD  Y5, Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JGE     acols16

acols4:
	ADDQ $12, CX
	JL   acols1

acols4loop:
	MOVQ        R13, AX
	VMOVSD      (AX), X0
	VMOVHPD     (AX)(BX*1), X0, X0
	LEAQ        (AX)(BX*2), AX
	VMOVSD      (AX), X6
	VMOVHPD     (AX)(BX*1), X6, X6
	LEAQ        (AX)(BX*2), AX
	VINSERTF128 $1, X6, Y0, Y0
	MOVQ        AX, R13
	MOVQ        SI, R10
	MOVQ        DX, R11
	MOVQ        m+8(FP), R12
	TESTQ       R12, R12
	JEQ         acols4store

acols4t:
	MOVQ         (R11), AX
	SHLQ         $1, AX
	JEQ          acols4skip
	VBROADCASTSD (R11), Y4
	VFMADD231PD  (R10), Y4, Y0

acols4skip:
	ADDQ    R8, R10
	ADDQ    R9, R11
	DECQ    R12
	JNE     acols4t

acols4store:
	VMULPD  Y5, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JGE     acols4loop

acols1:
	ADDQ $4, CX
	JE   acolsdone

acols1loop:
	VMOVSD (R13), X0
	ADDQ   BX, R13
	MOVQ   SI, R10
	MOVQ   DX, R11
	MOVQ   m+8(FP), R12
	TESTQ  R12, R12
	JEQ    acols1store

acols1t:
	MOVQ        (R11), AX
	SHLQ        $1, AX
	JEQ         acols1skip
	VMOVSD      (R11), X4
	VFMADD231SD (R10), X4, X0

acols1skip:
	ADDQ   R8, R10
	ADDQ   R9, R11
	DECQ   R12
	JNE    acols1t

acols1store:
	VMULSD X5, X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNE    acols1loop

acolsdone:
	VZEROUPPER
	RET

// func reflectAVX2(m, n int64, v *float64, negTau float64, c *float64, ldc int64)
//
// For each of the n columns c_j (m rows, ldc apart): w = dotAVX2(m, c_j, v),
// alpha = negTau*w and, unless alpha is ±0, axpyAVX2(m, alpha, v, c_j) —
// the Dot and the Axpy lapack's reflector update made per column, bit for
// bit: the dot is dotAVX2's block order, accumulators and reduction, with
// c_j the first factor of each FMA as it is in Dot(c_j, v); the update is
// axpyAVX2's blocks with alpha the broadcast operand. The zero test is on
// the bits with the sign shifted out, as in axpyColsAVX2.
TEXT ·reflectAVX2(SB), NOSPLIT, $0-48
	MOVQ   m+0(FP), R8
	MOVQ   n+8(FP), R9
	MOVQ   v+16(FP), R10
	VMOVSD negTau+24(FP), X14
	MOVQ   c+32(FP), DI
	MOVQ   ldc+40(FP), R11
	SHLQ   $3, R11           // ldc in bytes

rcol:
	MOVQ   R10, SI           // v
	MOVQ   DI, DX            // c_j
	MOVQ   R8, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD X4, X4, X4
	SUBQ   $16, CX
	JL     rdot4

	PCALIGN $64
rdot16:
	VMOVUPD     (DX), Y5
	VMOVUPD     32(DX), Y6
	VMOVUPD     64(DX), Y7
	VMOVUPD     96(DX), Y8
	VFMADD231PD (SI), Y5, Y0
	VFMADD231PD 32(SI), Y6, Y1
	VFMADD231PD 64(SI), Y7, Y2
	VFMADD231PD 96(SI), Y8, Y3
	ADDQ        $128, SI
	ADDQ        $128, DX
	SUBQ        $16, CX
	JGE         rdot16

rdot4:
	ADDQ $12, CX
	JL   rdot1

rdot4loop:
	VMOVUPD     (DX), Y5
	VFMADD231PD (SI), Y5, Y0
	ADDQ        $32, SI
	ADDQ        $32, DX
	SUBQ        $4, CX
	JGE         rdot4loop

rdot1:
	ADDQ $4, CX
	JE   rdotsum

rdot1loop:
	VMOVSD      (DX), X5
	VFMADD231SD (SI), X5, X4
	ADDQ        $8, SI
	ADDQ        $8, DX
	DECQ        CX
	JNE         rdot1loop

rdotsum:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X0, X0
	VADDSD       X4, X0, X0
	VMULSD       X0, X14, X9 // alpha = negTau * w
	VMOVQ        X9, AX
	SHLQ         $1, AX
	JEQ          rnext
	VBROADCASTSD X9, Y9

	MOVQ R10, SI
	MOVQ DI, DX
	MOVQ R8, CX
	SUBQ $16, CX
	JL   rax4

	PCALIGN $64
rax16:
	VMOVUPD     (DX), Y1
	VMOVUPD     32(DX), Y2
	VMOVUPD     64(DX), Y3
	VMOVUPD     96(DX), Y4
	VFMADD231PD (SI), Y9, Y1
	VFMADD231PD 32(SI), Y9, Y2
	VFMADD231PD 64(SI), Y9, Y3
	VFMADD231PD 96(SI), Y9, Y4
	VMOVUPD     Y1, (DX)
	VMOVUPD     Y2, 32(DX)
	VMOVUPD     Y3, 64(DX)
	VMOVUPD     Y4, 96(DX)
	ADDQ        $128, SI
	ADDQ        $128, DX
	SUBQ        $16, CX
	JGE         rax16

rax4:
	ADDQ $12, CX
	JL   rax1

rax4loop:
	VMOVUPD     (DX), Y1
	VFMADD231PD (SI), Y9, Y1
	VMOVUPD     Y1, (DX)
	ADDQ        $32, SI
	ADDQ        $32, DX
	SUBQ        $4, CX
	JGE         rax4loop

rax1:
	ADDQ $4, CX
	JE   rnext

rax1loop:
	VMOVSD      (DX), X1
	VFMADD231SD (SI), X9, X1
	VMOVSD      X1, (DX)
	ADDQ        $8, SI
	ADDQ        $8, DX
	DECQ        CX
	JNE         rax1loop

rnext:
	ADDQ R11, DI
	DECQ R9
	JNE  rcol
	VZEROUPPER
	RET

// func dotAVX2(n int64, x, y *float64) float64
//
// Fixed reduction order: 16-wide blocks accumulate into four ymm registers
// (element i of a block into register (i/4)%4, lane i%4), 4-wide blocks
// into the first of them, the scalar tail into a fifth accumulator; the
// result is (((Y0+Y1)+(Y2+Y3)) folded high half onto low, lane 1 onto
// lane 0) + tail.
TEXT ·dotAVX2(SB), NOSPLIT, $0-32
	MOVQ   n+0(FP), CX
	MOVQ   x+8(FP), SI
	MOVQ   y+16(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD X4, X4, X4
	SUBQ   $16, CX
	JL     dot4

	PCALIGN $64
dot16:
	VMOVUPD     (SI), Y5
	VMOVUPD     32(SI), Y6
	VMOVUPD     64(SI), Y7
	VMOVUPD     96(SI), Y8
	VFMADD231PD (DI), Y5, Y0
	VFMADD231PD 32(DI), Y6, Y1
	VFMADD231PD 64(DI), Y7, Y2
	VFMADD231PD 96(DI), Y8, Y3
	ADDQ        $128, SI
	ADDQ        $128, DI
	SUBQ        $16, CX
	JGE         dot16

dot4:
	ADDQ $12, CX
	JL   dot1

dot4loop:
	VMOVUPD     (SI), Y5
	VFMADD231PD (DI), Y5, Y0
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $4, CX
	JGE         dot4loop

dot1:
	ADDQ $4, CX
	JE   dotsum

dot1loop:
	VMOVSD      (SI), X5
	VFMADD231SD (DI), X5, X4
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JNE         dot1loop

dotsum:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X0, X0
	VADDSD       X4, X0, X0
	VMOVSD       X0, ret+24(FP)
	VZEROUPPER
	RET

// func packRowsAVX2(kc int64, alpha float64, src *float64, ld int64, dst *float64, w int64)
//
// dst[k*w+r] = alpha*src[k*ld+r] for k in [0, kc), r in [0, w), w = 4 or 8:
// the full-panel case of packRowsGo. A multiply rounds the same in a vector
// lane as in a scalar register, so the packed bits are those of the Go loop.
TEXT ·packRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ         kc+0(FP), CX
	VBROADCASTSD alpha+8(FP), Y0
	MOVQ         src+16(FP), SI
	MOVQ         ld+24(FP), R8
	MOVQ         dst+32(FP), DI
	SHLQ         $3, R8
	CMPQ         w+40(FP), $8
	JEQ          rows8

rows4:
	VMULPD  (SI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ    R8, SI
	ADDQ    $32, DI
	DECQ    CX
	JNE     rows4
	VZEROUPPER
	RET

rows8:
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    R8, SI
	ADDQ    $64, DI
	DECQ    CX
	JNE     rows8
	VZEROUPPER
	RET

// func packCols4AVX2(kc int64, alpha float64, src *float64, ld int64, dst *float64, w int64)
//
// dst[k*w+q] = alpha*src[q*ld+k] for k in [0, kc), q in [0, 4): four source
// columns interleaved into a w-wide packed panel (packColsGo for one group
// of four). Blocks of four k are scaled and transposed 4x4 in registers;
// the last kc%4 go element by element.
TEXT ·packCols4AVX2(SB), NOSPLIT, $0-48
	MOVQ         kc+0(FP), CX
	VBROADCASTSD alpha+8(FP), Y0
	MOVQ         src+16(FP), SI
	MOVQ         ld+24(FP), R8
	MOVQ         dst+32(FP), DI
	MOVQ         w+40(FP), R9
	SHLQ         $3, R8
	SHLQ         $3, R9
	LEAQ         (SI)(R8*1), R10  // column 1
	LEAQ         (SI)(R8*2), R11  // column 2
	LEAQ         (R10)(R8*2), R12 // column 3
	LEAQ         (R9)(R9*2), R13  // 3 packed rows, in bytes
	SUBQ         $4, CX
	JL           cols1

cols4:
	VMULPD     (SI), Y0, Y1       // a0 a1 a2 a3
	VMULPD     (R10), Y0, Y2      // b0 b1 b2 b3
	VMULPD     (R11), Y0, Y3      // c0 c1 c2 c3
	VMULPD     (R12), Y0, Y4      // d0 d1 d2 d3
	VUNPCKLPD  Y2, Y1, Y5         // a0 b0 a2 b2
	VUNPCKHPD  Y2, Y1, Y6         // a1 b1 a3 b3
	VUNPCKLPD  Y4, Y3, Y7         // c0 d0 c2 d2
	VUNPCKHPD  Y4, Y3, Y8         // c1 d1 c3 d3
	VPERM2F128 $0x20, Y7, Y5, Y1  // a0 b0 c0 d0
	VPERM2F128 $0x20, Y8, Y6, Y2  // a1 b1 c1 d1
	VPERM2F128 $0x31, Y7, Y5, Y3  // a2 b2 c2 d2
	VPERM2F128 $0x31, Y8, Y6, Y4  // a3 b3 c3 d3
	VMOVUPD    Y1, (DI)
	VMOVUPD    Y2, (DI)(R9*1)
	VMOVUPD    Y3, (DI)(R9*2)
	VMOVUPD    Y4, (DI)(R13*1)
	ADDQ       $32, SI
	ADDQ       $32, R10
	ADDQ       $32, R11
	ADDQ       $32, R12
	LEAQ       (DI)(R9*4), DI
	SUBQ       $4, CX
	JGE        cols4

cols1:
	ADDQ $4, CX
	JE   colsdone

cols1loop:
	VMULSD (SI), X0, X1
	VMULSD (R10), X0, X2
	VMULSD (R11), X0, X3
	VMULSD (R12), X0, X4
	VMOVSD X1, (DI)
	VMOVSD X2, 8(DI)
	VMOVSD X3, 16(DI)
	VMOVSD X4, 24(DI)
	ADDQ   $8, SI
	ADDQ   $8, R10
	ADDQ   $8, R11
	ADDQ   $8, R12
	ADDQ   R9, DI
	DECQ   CX
	JNE    cols1loop

colsdone:
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

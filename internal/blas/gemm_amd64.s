//go:build amd64 && !purego

#include "textflag.h"

// The two micro-kernels finish their tile in the register write-back. Each
// element keeps the FMA chain over k that starts from zero (acc); mode,
// iw x jw (the live corner of the tile), r and s (the row and column
// factors from the tile's corner, nil for none) then say how it reaches C:
//
//	mode 0          C + acc                      (accumulate)
//	mode wbZero     acc + 0                      (first k slab of beta = 0: C is not read)
//	mode wbEdge     the same, rows < iw and columns < jw only
//	then            (. * r[i]) * s[j], each factor left out when nil
//
// which are the bits the zero pass and the scaling pass gave when they
// were separate passes over C, whatever the tile's width. The full tile
// stores whole columns; an edge tile masks its rows (ymm masks here, an
// opmask in the AVX-512 kernel) and counts its columns, shifting the next
// column's accumulators down after each store, so nothing outside the
// iw x jw corner of C, r or s is read or written. mode bits: 1 wbZero,
// 2 wbEdge (gemm_packed.go).

// edgeMask<>+8*(8-iw) holds eight qwords whose first iw are all ones: the
// row masks of an edge tile, two ymm halves of the 8-row tile.
DATA edgeMask<>+0(SB)/8, $-1
DATA edgeMask<>+8(SB)/8, $-1
DATA edgeMask<>+16(SB)/8, $-1
DATA edgeMask<>+24(SB)/8, $-1
DATA edgeMask<>+32(SB)/8, $-1
DATA edgeMask<>+40(SB)/8, $-1
DATA edgeMask<>+48(SB)/8, $-1
DATA edgeMask<>+56(SB)/8, $-1
DATA edgeMask<>+64(SB)/8, $0
DATA edgeMask<>+72(SB)/8, $0
DATA edgeMask<>+80(SB)/8, $0
DATA edgeMask<>+88(SB)/8, $0
DATA edgeMask<>+96(SB)/8, $0
DATA edgeMask<>+104(SB)/8, $0
DATA edgeMask<>+112(SB)/8, $0
DATA edgeMask<>+120(SB)/8, $0
GLOBL edgeMask<>(SB), RODATA|NOPTR, $128

// func dgemm8x4asm(kc int64, a, b, c *float64, ldc, mode, iw, jw int64, r, s *float64)
//
// The 8x4 tile of sum_k a[8k+r] * b[4k+q], written back into C as above.
// a is an mr=8 packed micro-panel (k-major stripes of 8), b an nr=4 packed
// micro-panel (k-major stripes of 4); see gemm_packed.go for the layout.
// Eight ymm accumulators hold the full 8x4 tile across the k loop; each
// iteration issues 2 vector loads, 4 broadcasts and 8 FMAs (64 flops).
TEXT ·dgemm8x4asm(SB), NOSPLIT, $0-80
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
	MOVQ mode+40(FP), AX
	MOVQ r+64(FP), R11
	MOVQ s+72(FP), R12
	MOVQ AX, BX
	ORQ  R11, BX
	ORQ  R12, BX             // BX = 0: mode 0 and no factors, the flush's
	JNE  finish4             // case, one test from the k loop to the adds

add4:
	MOVQ   DX, R9
	VADDPD (R9), Y0, Y0
	VADDPD 32(R9), Y1, Y1
	ADDQ   R8, R9
	VADDPD (R9), Y2, Y2
	VADDPD 32(R9), Y3, Y3
	ADDQ   R8, R9
	VADDPD (R9), Y4, Y4
	VADDPD 32(R9), Y5, Y5
	ADDQ   R8, R9
	VADDPD (R9), Y6, Y6
	VADDPD 32(R9), Y7, Y7
	TESTQ  BX, BX
	JNE    rows4

store4:
	MOVQ    DX, R9
	VMOVUPD Y0, (R9)
	VMOVUPD Y1, 32(R9)
	ADDQ    R8, R9
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, 32(R9)
	ADDQ    R8, R9
	VMOVUPD Y4, (R9)
	VMOVUPD Y5, 32(R9)
	ADDQ    R8, R9
	VMOVUPD Y6, (R9)
	VMOVUPD Y7, 32(R9)
	VZEROUPPER
	RET

finish4:
	TESTQ  $2, AX
	JNE    edge4
	TESTQ  $1, AX
	JEQ    add4
	VXORPD Y8, Y8, Y8
	VADDPD Y8, Y0, Y0
	VADDPD Y8, Y1, Y1
	VADDPD Y8, Y2, Y2
	VADDPD Y8, Y3, Y3
	VADDPD Y8, Y4, Y4
	VADDPD Y8, Y5, Y5
	VADDPD Y8, Y6, Y6
	VADDPD Y8, Y7, Y7

rows4:
	TESTQ   R11, R11
	JEQ     cols4
	VMOVUPD (R11), Y8
	VMOVUPD 32(R11), Y9
	VMULPD  Y8, Y0, Y0
	VMULPD  Y9, Y1, Y1
	VMULPD  Y8, Y2, Y2
	VMULPD  Y9, Y3, Y3
	VMULPD  Y8, Y4, Y4
	VMULPD  Y9, Y5, Y5
	VMULPD  Y8, Y6, Y6
	VMULPD  Y9, Y7, Y7

cols4:
	TESTQ        R12, R12
	JEQ          store4
	VBROADCASTSD (R12), Y8
	VBROADCASTSD 8(R12), Y9
	VBROADCASTSD 16(R12), Y10
	VBROADCASTSD 24(R12), Y11
	VMULPD       Y8, Y0, Y0
	VMULPD       Y8, Y1, Y1
	VMULPD       Y9, Y2, Y2
	VMULPD       Y9, Y3, Y3
	VMULPD       Y10, Y4, Y4
	VMULPD       Y10, Y5, Y5
	VMULPD       Y11, Y6, Y6
	VMULPD       Y11, Y7, Y7
	JMP          store4

	// Edge tile: Y9/Y10 mask the iw live rows, r's are loaded under them,
	// and the jw live columns go one at a time from Y0/Y1.
edge4:
	MOVQ       $8, BX
	SUBQ       iw+48(FP), BX
	LEAQ       edgeMask<>(SB), R9
	LEAQ       (R9)(BX*8), R9
	VMOVUPD    (R9), Y9
	VMOVUPD    32(R9), Y10
	TESTQ      R11, R11
	JEQ        ecols4
	VMASKMOVPD (R11), Y9, Y11
	VMASKMOVPD 32(R11), Y10, Y12

ecols4:
	MOVQ   jw+56(FP), CX
	VXORPD Y8, Y8, Y8

ecol4:
	TESTQ      $1, AX
	JEQ        eadd4
	VADDPD     Y8, Y0, Y0
	VADDPD     Y8, Y1, Y1
	JMP        erows4

eadd4:
	VMASKMOVPD (DX), Y9, Y13
	VMASKMOVPD 32(DX), Y10, Y14
	VADDPD     Y13, Y0, Y0
	VADDPD     Y14, Y1, Y1

erows4:
	TESTQ  R11, R11
	JEQ    ecol4s
	VMULPD Y11, Y0, Y0
	VMULPD Y12, Y1, Y1

ecol4s:
	TESTQ        R12, R12
	JEQ          ecol4store
	VBROADCASTSD (R12), Y15
	VMULPD       Y15, Y0, Y0
	VMULPD       Y15, Y1, Y1
	ADDQ         $8, R12

ecol4store:
	VMASKMOVPD Y0, Y9, (DX)
	VMASKMOVPD Y1, Y10, 32(DX)
	VMOVAPD    Y2, Y0
	VMOVAPD    Y3, Y1
	VMOVAPD    Y4, Y2
	VMOVAPD    Y5, Y3
	VMOVAPD    Y6, Y4
	VMOVAPD    Y7, Y5
	ADDQ       R8, DX
	DECQ       CX
	JNE        ecol4
	VZEROUPPER
	RET

// func dgemm8x8asm(kc int64, a, b, c *float64, ldc, mode, iw, jw int64, r, s *float64)
//
// The 8x8 tile of sum_k a[8k+r] * b[8k+q], written back into C as above:
// the AVX-512 kernel. a is the same mr=8 packed micro-panel dgemm8x4asm
// reads, b an nr=8 one. Eight zmm accumulators, one per C column, hold the
// tile across the k loop; a k step is one 64-byte load of a and eight FMAs
// that broadcast their b element from memory (128 flops). Element (r, q)
// sees the FMA chain over k from zero and the write-back it sees in
// dgemm8x4asm, so the two kernels store the same bits.
TEXT ·dgemm8x8asm(SB), NOSPLIT, $0-80
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
	MOVQ mode+40(FP), AX
	MOVQ r+64(FP), R11
	MOVQ s+72(FP), R12
	LEAQ (R8)(R8*2), R9      // 3 columns of C, in bytes
	LEAQ (DX)(R8*4), R10     // column 4
	MOVQ AX, BX
	ORQ  R11, BX
	ORQ  R12, BX             // BX = 0: mode 0 and no factors, the flush's
	JNE  finish8             // case, one test from the k loop to the adds

add8:
	VADDPD (DX), Z0, Z0
	VADDPD (DX)(R8*1), Z1, Z1
	VADDPD (DX)(R8*2), Z2, Z2
	VADDPD (DX)(R9*1), Z3, Z3
	VADDPD (R10), Z4, Z4
	VADDPD (R10)(R8*1), Z5, Z5
	VADDPD (R10)(R8*2), Z6, Z6
	VADDPD (R10)(R9*1), Z7, Z7
	TESTQ  BX, BX
	JNE    rows8

store8:
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

finish8:
	TESTQ  $2, AX
	JNE    edge8
	TESTQ  $1, AX
	JEQ    add8
	VPXORQ Z8, Z8, Z8
	VADDPD Z8, Z0, Z0
	VADDPD Z8, Z1, Z1
	VADDPD Z8, Z2, Z2
	VADDPD Z8, Z3, Z3
	VADDPD Z8, Z4, Z4
	VADDPD Z8, Z5, Z5
	VADDPD Z8, Z6, Z6
	VADDPD Z8, Z7, Z7

rows8:
	TESTQ   R11, R11
	JEQ     cols8
	VMOVUPD (R11), Z8
	VMULPD  Z8, Z0, Z0
	VMULPD  Z8, Z1, Z1
	VMULPD  Z8, Z2, Z2
	VMULPD  Z8, Z3, Z3
	VMULPD  Z8, Z4, Z4
	VMULPD  Z8, Z5, Z5
	VMULPD  Z8, Z6, Z6
	VMULPD  Z8, Z7, Z7

cols8:
	TESTQ       R12, R12
	JEQ         store8
	VMULPD.BCST (R12), Z0, Z0
	VMULPD.BCST 8(R12), Z1, Z1
	VMULPD.BCST 16(R12), Z2, Z2
	VMULPD.BCST 24(R12), Z3, Z3
	VMULPD.BCST 32(R12), Z4, Z4
	VMULPD.BCST 40(R12), Z5, Z5
	VMULPD.BCST 48(R12), Z6, Z6
	VMULPD.BCST 56(R12), Z7, Z7
	JMP         store8

	// Edge tile: K1 masks the iw live rows, r is loaded under it, and the
	// jw live columns go one at a time from Z0.
edge8:
	MOVQ  iw+48(FP), CX
	MOVQ  $1, BX
	SHLQ  CX, BX
	DECQ  BX
	KMOVW BX, K1
	TESTQ R11, R11
	JEQ   ecols8
	VMOVUPD.Z (R11), K1, Z10

ecols8:
	MOVQ   jw+56(FP), CX
	VPXORQ Z8, Z8, Z8

ecol8:
	TESTQ     $1, AX
	JEQ       eadd8
	VADDPD    Z8, Z0, Z0
	JMP       erows8

eadd8:
	VMOVUPD.Z (DX), K1, Z9
	VADDPD    Z9, Z0, Z0

erows8:
	TESTQ  R11, R11
	JEQ    ecol8s
	VMULPD Z10, Z0, Z0

ecol8s:
	TESTQ       R12, R12
	JEQ         ecol8store
	VMULPD.BCST (R12), Z0, Z0
	ADDQ        $8, R12

ecol8store:
	VMOVUPD Z0, K1, (DX)
	VMOVAPD Z1, Z0
	VMOVAPD Z2, Z1
	VMOVAPD Z3, Z2
	VMOVAPD Z4, Z3
	VMOVAPD Z5, Z4
	VMOVAPD Z6, Z5
	VMOVAPD Z7, Z6
	ADDQ    R8, DX
	DECQ    CX
	JNE     ecol8
	VZEROUPPER
	RET

// The eight stride-1 kernels below make their results a function of (n,
// values) alone: every load and store is unaligned (no peeling on the
// address), a vector's element count (and the transposing pack's kc) is
// consumed as the widest blocks first and scalars last, in an order that
// depends on the count only, and a count of 0 never reaches them (the Go
// wrappers in gemm_amd64.go check extents first). The hot loops of axpy,
// axpyCols, rank1, dot and the reflector update start on a cache-line boundary, as
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

// func rank1AVX2(m, n int64, x, y *float64, incy int64, a *float64, lda int64)
//
// For each of the n columns a_j (m rows, lda apart): alpha = -y[j*incy] and,
// unless alpha is ±0, a_j[i] = fma(alpha, x[i], a_j[i]) in axpyAVX2's blocks
// and operand order — the Axpy(-y_j, x, a_j) calls, bit for bit. The
// negation flips the sign bit, as Go's unary minus does; the zero test is on
// the bits with the sign shifted out, as in axpyColsAVX2, so a NaN
// coefficient is never skipped.
TEXT ·rank1AVX2(SB), NOSPLIT, $0-56
	MOVQ m+0(FP), R8
	MOVQ n+8(FP), R9
	MOVQ x+16(FP), R10
	MOVQ y+24(FP), R11
	MOVQ incy+32(FP), R12
	MOVQ a+40(FP), DI
	MOVQ lda+48(FP), R13
	SHLQ $3, R12             // incy in bytes
	SHLQ $3, R13             // lda in bytes

r1col:
	MOVQ         (R11), AX
	MOVQ         AX, BX
	SHLQ         $1, BX
	JEQ          r1next
	BTCQ         $63, AX     // alpha = -y_j
	VMOVQ        AX, X0
	VBROADCASTSD X0, Y0
	MOVQ         R10, SI     // x
	MOVQ         DI, DX      // a_j
	MOVQ         R8, CX
	SUBQ         $16, CX
	JL           r1ax4

	PCALIGN $64
r1ax16:
	VMOVUPD     (DX), Y1
	VMOVUPD     32(DX), Y2
	VMOVUPD     64(DX), Y3
	VMOVUPD     96(DX), Y4
	VFMADD231PD (SI), Y0, Y1
	VFMADD231PD 32(SI), Y0, Y2
	VFMADD231PD 64(SI), Y0, Y3
	VFMADD231PD 96(SI), Y0, Y4
	VMOVUPD     Y1, (DX)
	VMOVUPD     Y2, 32(DX)
	VMOVUPD     Y3, 64(DX)
	VMOVUPD     Y4, 96(DX)
	ADDQ        $128, SI
	ADDQ        $128, DX
	SUBQ        $16, CX
	JGE         r1ax16

r1ax4:
	ADDQ $12, CX
	JL   r1ax1

r1ax4loop:
	VMOVUPD     (DX), Y1
	VFMADD231PD (SI), Y0, Y1
	VMOVUPD     Y1, (DX)
	ADDQ        $32, SI
	ADDQ        $32, DX
	SUBQ        $4, CX
	JGE         r1ax4loop

r1ax1:
	ADDQ $4, CX
	JE   r1next

r1ax1loop:
	VMOVSD      (DX), X1
	VFMADD231SD (SI), X0, X1
	VMOVSD      X1, (DX)
	ADDQ        $8, SI
	ADDQ        $8, DX
	DECQ        CX
	JNE         r1ax1loop

r1next:
	ADDQ R12, R11
	ADDQ R13, DI
	DECQ R9
	JNE  r1col
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

// The two Kronecker-factor kernels below are the micro-kernels' arithmetic
// over unpacked operands: one stage of blas.KronLeft/KronRight, the
// rows x m product
//
//	C[i, q] = sum_t a[t*lda + i] * b[t + q*ldb]   t in [0, k), ascending
//
// finished by the micro-kernels' write-back (mode 1: acc + 0, mode 0:
// C + acc, then (. * r[i]) * s[q], each factor left out when nil). A is
// read in place, one row block of a column per k step, B's elements are
// broadcast, and neither is packed. Rows go in blocks of 16
// (AVX-512) or 8 (AVX2), the last one masked, so no row outside [0, rows)
// of A, C or r is read or written; columns go in groups of 4, then one at
// a time, so no column outside [0, m) of B, C or s is. Each element sees
// the FMA chain over t from zero whatever its block or group, with a in
// the operand slot the micro-kernel gives it (which decides whose NaN
// survives where two meet), so each kernel stores the bits its GEMM
// micro-kernel (dgemm8x8asm, dgemm8x4asm) stores for the same product.
// rows, k and m are at least 1.
//
// One call runs a batch of nb >= 1 such products: after each, a, b and c
// step by abs, bbs and cbs elements and s (when not nil) by m, in the
// argument slots, which step only while another product follows, so
// they never point past the operands.

#define KZERO(lo, hi) VPXORQ lo, lo, lo; VPXORQ hi, hi, hi
#define KADDZ(lo, hi) VADDPD Z16, lo, lo; VADDPD Z16, hi, hi
#define KADDC(lo, hi) VMOVUPD.Z (AX), K1, Z10; VMOVUPD.Z 64(AX), K2, Z11; VADDPD Z10, lo, lo; VADDPD Z11, hi, hi; ADDQ R10, AX
#define KMULR(lo, hi) VMULPD Z14, lo, lo; VMULPD Z15, hi, hi
#define KMULS(lo, hi) VMULPD.BCST (AX), lo, lo; VMULPD.BCST (AX), hi, hi; ADDQ $8, AX
#define KSTORE(lo, hi) VMOVUPD lo, K1, (DI); VMOVUPD hi, K2, 64(DI); ADDQ R10, DI

// func kronAVX512(rows, k, m int64, a *float64, lda int64, b *float64, ldb int64, c *float64, ldc, mode int64, r, s *float64, nb, abs, bbs, cbs int64)
//
// Rows go in blocks of 16, two zmm halves masked by K1 and K2, with their
// r factors in Z14/Z15 and zero in Z16; Z0-Z7 are a 4-column group's
// accumulators, a column's halves side by side. A k step of the group is
// two masked loads of a, four broadcasts of b and eight FMAs, each with a
// as its first factor as in dgemm8x8asm. A block of 8 rows or fewer runs
// its upper half masked off.
TEXT ·kronAVX512(SB), NOSPLIT, $0-128
	MOVQ   lda+32(FP), R8
	SHLQ   $3, R8            // lda in bytes
	MOVQ   ldb+48(FP), R9
	SHLQ   $3, R9            // ldb in bytes
	MOVQ   ldc+64(FP), R10
	SHLQ   $3, R10           // ldc in bytes
	LEAQ   (R9)(R9*2), R11   // 3 columns of b, in bytes
	VPXORQ Z16, Z16, Z16
	XORQ   DX, DX            // the row block's first row, in bytes

krow:
	MOVQ  rows+0(FP), CX
	SHLQ  $3, CX
	SUBQ  DX, CX
	SHRQ  $3, CX             // rows left
	CMPQ  CX, $16
	JLE   kmask
	MOVQ  $16, CX

kmask:
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX                 // the block's live rows, one bit each
	KMOVW AX, K1
	SHRQ  $8, AX
	KMOVW AX, K2
	MOVQ  r+80(FP), AX
	TESTQ AX, AX
	JEQ   kcols
	VMOVUPD.Z (AX)(DX*1), K1, Z14
	VMOVUPD.Z 64(AX)(DX*1), K2, Z15

kcols:
	MOVQ b+40(FP), BX        // b's first column of the group
	MOVQ c+56(FP), DI
	ADDQ DX, DI              // C's column, this row block
	MOVQ m+16(FP), CX        // columns left

kgroup4:
	CMPQ  CX, $4
	JLT   kgroup1
	KZERO(Z0, Z1)
	KZERO(Z2, Z3)
	KZERO(Z4, Z5)
	KZERO(Z6, Z7)
	MOVQ  a+24(FP), SI
	ADDQ  DX, SI
	MOVQ  BX, AX
	MOVQ  k+8(FP), R13

	PCALIGN $64
kloop4:
	VMOVUPD.Z    (SI), K1, Z8
	VMOVUPD.Z    64(SI), K2, Z9
	VBROADCASTSD (AX), Z10
	VBROADCASTSD (AX)(R9*1), Z11
	VBROADCASTSD (AX)(R9*2), Z12
	VBROADCASTSD (AX)(R11*1), Z13
	VFMADD231PD  Z10, Z8, Z0
	VFMADD231PD  Z10, Z9, Z1
	VFMADD231PD  Z11, Z8, Z2
	VFMADD231PD  Z11, Z9, Z3
	VFMADD231PD  Z12, Z8, Z4
	VFMADD231PD  Z12, Z9, Z5
	VFMADD231PD  Z13, Z8, Z6
	VFMADD231PD  Z13, Z9, Z7
	ADDQ         R8, SI
	ADDQ         $8, AX
	DECQ         R13
	JNE          kloop4

	MOVQ  mode+72(FP), AX
	TESTQ $1, AX
	JEQ   kacc4
	KADDZ(Z0, Z1)
	KADDZ(Z2, Z3)
	KADDZ(Z4, Z5)
	KADDZ(Z6, Z7)
	JMP   kr4

kacc4:
	MOVQ DI, AX
	KADDC(Z0, Z1)
	KADDC(Z2, Z3)
	KADDC(Z4, Z5)
	KADDC(Z6, Z7)

kr4:
	MOVQ  r+80(FP), AX
	TESTQ AX, AX
	JEQ   ks4
	KMULR(Z0, Z1)
	KMULR(Z2, Z3)
	KMULR(Z4, Z5)
	KMULR(Z6, Z7)

ks4:
	MOVQ  s+88(FP), AX
	TESTQ AX, AX
	JEQ   kst4
	MOVQ  m+16(FP), R13
	SUBQ  CX, R13
	LEAQ  (AX)(R13*8), AX    // s[q] for the group's first column q
	KMULS(Z0, Z1)
	KMULS(Z2, Z3)
	KMULS(Z4, Z5)
	KMULS(Z6, Z7)

kst4:
	KSTORE(Z0, Z1)
	KSTORE(Z2, Z3)
	KSTORE(Z4, Z5)
	KSTORE(Z6, Z7)
	LEAQ (BX)(R9*4), BX
	SUBQ $4, CX
	JMP  kgroup4

kgroup1:
	TESTQ CX, CX
	JEQ   knext
	KZERO(Z0, Z1)
	MOVQ  a+24(FP), SI
	ADDQ  DX, SI
	MOVQ  BX, AX
	MOVQ  k+8(FP), R13

kloop1:
	VMOVUPD.Z    (SI), K1, Z8
	VMOVUPD.Z    64(SI), K2, Z9
	VBROADCASTSD (AX), Z10
	VFMADD231PD  Z10, Z8, Z0
	VFMADD231PD  Z10, Z9, Z1
	ADDQ         R8, SI
	ADDQ         $8, AX
	DECQ         R13
	JNE          kloop1

	MOVQ  mode+72(FP), AX
	TESTQ $1, AX
	JEQ   kacc1
	KADDZ(Z0, Z1)
	JMP   kr1

kacc1:
	MOVQ DI, AX
	KADDC(Z0, Z1)

kr1:
	MOVQ  r+80(FP), AX
	TESTQ AX, AX
	JEQ   ks1
	KMULR(Z0, Z1)

ks1:
	MOVQ  s+88(FP), AX
	TESTQ AX, AX
	JEQ   kst1
	MOVQ  m+16(FP), R13
	SUBQ  CX, R13
	LEAQ  (AX)(R13*8), AX
	KMULS(Z0, Z1)

kst1:
	KSTORE(Z0, Z1)
	ADDQ R9, BX
	DECQ CX
	JMP  kgroup1

knext:
	ADDQ $128, DX
	MOVQ rows+0(FP), AX
	SHLQ $3, AX
	CMPQ DX, AX
	JLT  krow
	DECQ nb+96(FP)
	JEQ  kdone
	MOVQ  abs+104(FP), AX
	SHLQ  $3, AX
	ADDQ  AX, a+24(FP)
	MOVQ  bbs+112(FP), AX
	SHLQ  $3, AX
	ADDQ  AX, b+40(FP)
	MOVQ  cbs+120(FP), AX
	SHLQ  $3, AX
	ADDQ  AX, c+56(FP)
	MOVQ  s+88(FP), AX
	TESTQ AX, AX
	JEQ   kbatch
	MOVQ  m+16(FP), BX
	LEAQ  (AX)(BX*8), AX
	MOVQ  AX, s+88(FP)

kbatch:
	XORQ DX, DX
	JMP  krow

kdone:
	VZEROUPPER
	RET

#define YZERO(lo, hi) VXORPD lo, lo, lo; VXORPD hi, hi, hi
#define YADDZ(lo, hi) VADDPD Y10, lo, lo; VADDPD Y10, hi, hi
#define YADDC(lo, hi) VMASKMOVPD (AX), Y14, Y10; VMASKMOVPD 32(AX), Y15, Y11; VADDPD Y10, lo, lo; VADDPD Y11, hi, hi; ADDQ R10, AX
#define YMULR(lo, hi) VMULPD Y12, lo, lo; VMULPD Y13, hi, hi
#define YMULS(lo, hi) VBROADCASTSD (AX), Y10; VMULPD Y10, lo, lo; VMULPD Y10, hi, hi; ADDQ $8, AX
#define YSTORE(lo, hi) VMOVUPD lo, (DI); VMOVUPD hi, 32(DI); ADDQ R10, DI
#define YSTOREM(lo, hi) VMASKMOVPD lo, Y14, (DI); VMASKMOVPD hi, Y15, 32(DI); ADDQ R10, DI

// func kronAVX2(rows, k, m int64, a *float64, lda int64, b *float64, ldb int64, c *float64, ldc, mode int64, r, s *float64, nb, abs, bbs, cbs int64)
//
// kronAVX512's loops at half the vector width: Y14/Y15 mask the row
// block's live rows (edgeMask), Y12/Y13 hold its r factors, and a column's
// 8 rows are two ymm accumulators. A k step of the 4-column group is two
// masked loads of a, four broadcasts and eight FMAs, dgemm8x4asm's step. A
// full row block stores unmasked.
TEXT ·kronAVX2(SB), NOSPLIT, $0-128
	MOVQ lda+32(FP), R8
	SHLQ $3, R8
	MOVQ ldb+48(FP), R9
	SHLQ $3, R9
	MOVQ ldc+64(FP), R10
	SHLQ $3, R10
	LEAQ (R9)(R9*2), R11
	XORQ DX, DX

yrow:
	MOVQ    rows+0(FP), CX
	SHLQ    $3, CX
	SUBQ    DX, CX
	SHRQ    $3, CX
	CMPQ    CX, $8
	JLE     ymask
	MOVQ    $8, CX

ymask:
	MOVQ    $8, AX
	SUBQ    CX, AX
	LEAQ    edgeMask<>(SB), R12
	LEAQ    (R12)(AX*8), R12
	VMOVUPD (R12), Y14
	VMOVUPD 32(R12), Y15
	MOVQ    r+80(FP), AX
	TESTQ   AX, AX
	JEQ     ycols
	VMASKMOVPD (AX)(DX*1), Y14, Y12
	VMASKMOVPD 32(AX)(DX*1), Y15, Y13

ycols:
	MOVQ b+40(FP), BX
	MOVQ c+56(FP), DI
	ADDQ DX, DI
	MOVQ m+16(FP), CX

ygroup4:
	CMPQ  CX, $4
	JLT   ygroup1
	YZERO(Y0, Y1)
	YZERO(Y2, Y3)
	YZERO(Y4, Y5)
	YZERO(Y6, Y7)
	MOVQ  a+24(FP), SI
	ADDQ  DX, SI
	MOVQ  BX, AX
	MOVQ  k+8(FP), R13

	PCALIGN $64
yloop4:
	VMASKMOVPD   (SI), Y14, Y8
	VMASKMOVPD   32(SI), Y15, Y9
	VBROADCASTSD (AX), Y10
	VBROADCASTSD (AX)(R9*1), Y11
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD (AX)(R9*2), Y10
	VBROADCASTSD (AX)(R11*1), Y11
	VFMADD231PD  Y8, Y10, Y4
	VFMADD231PD  Y9, Y10, Y5
	VFMADD231PD  Y8, Y11, Y6
	VFMADD231PD  Y9, Y11, Y7
	ADDQ         R8, SI
	ADDQ         $8, AX
	DECQ         R13
	JNE          yloop4

	VXORPD Y10, Y10, Y10
	MOVQ   mode+72(FP), AX
	TESTQ  $1, AX
	JEQ    yacc4
	YADDZ(Y0, Y1)
	YADDZ(Y2, Y3)
	YADDZ(Y4, Y5)
	YADDZ(Y6, Y7)
	JMP    yr4

yacc4:
	MOVQ DI, AX
	YADDC(Y0, Y1)
	YADDC(Y2, Y3)
	YADDC(Y4, Y5)
	YADDC(Y6, Y7)

yr4:
	MOVQ  r+80(FP), AX
	TESTQ AX, AX
	JEQ   ys4
	YMULR(Y0, Y1)
	YMULR(Y2, Y3)
	YMULR(Y4, Y5)
	YMULR(Y6, Y7)

ys4:
	MOVQ  s+88(FP), AX
	TESTQ AX, AX
	JEQ   yst4
	MOVQ  m+16(FP), R13
	SUBQ  CX, R13
	LEAQ  (AX)(R13*8), AX
	YMULS(Y0, Y1)
	YMULS(Y2, Y3)
	YMULS(Y4, Y5)
	YMULS(Y6, Y7)

yst4:
	MOVQ rows+0(FP), AX
	SHLQ $3, AX
	SUBQ DX, AX
	CMPQ AX, $64
	JLT  yst4m
	YSTORE(Y0, Y1)
	YSTORE(Y2, Y3)
	YSTORE(Y4, Y5)
	YSTORE(Y6, Y7)
	JMP  ynext4

yst4m:
	YSTOREM(Y0, Y1)
	YSTOREM(Y2, Y3)
	YSTOREM(Y4, Y5)
	YSTOREM(Y6, Y7)

ynext4:
	LEAQ (BX)(R9*4), BX
	SUBQ $4, CX
	JMP  ygroup4

ygroup1:
	TESTQ CX, CX
	JEQ   ynext
	YZERO(Y0, Y1)
	MOVQ  a+24(FP), SI
	ADDQ  DX, SI
	MOVQ  BX, AX
	MOVQ  k+8(FP), R13

yloop1:
	VMASKMOVPD   (SI), Y14, Y8
	VMASKMOVPD   32(SI), Y15, Y9
	VBROADCASTSD (AX), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	ADDQ         R8, SI
	ADDQ         $8, AX
	DECQ         R13
	JNE          yloop1

	VXORPD Y10, Y10, Y10
	MOVQ   mode+72(FP), AX
	TESTQ  $1, AX
	JEQ    yacc1
	YADDZ(Y0, Y1)
	JMP    yr1

yacc1:
	MOVQ DI, AX
	YADDC(Y0, Y1)

yr1:
	MOVQ  r+80(FP), AX
	TESTQ AX, AX
	JEQ   ys1
	YMULR(Y0, Y1)

ys1:
	MOVQ  s+88(FP), AX
	TESTQ AX, AX
	JEQ   yst1
	MOVQ  m+16(FP), R13
	SUBQ  CX, R13
	LEAQ  (AX)(R13*8), AX
	YMULS(Y0, Y1)

yst1:
	MOVQ rows+0(FP), AX
	SHLQ $3, AX
	SUBQ DX, AX
	CMPQ AX, $64
	JLT  yst1m
	YSTORE(Y0, Y1)
	JMP  ynext1

yst1m:
	YSTOREM(Y0, Y1)

ynext1:
	ADDQ R9, BX
	DECQ CX
	JMP  ygroup1

ynext:
	ADDQ $64, DX
	MOVQ rows+0(FP), AX
	SHLQ $3, AX
	CMPQ DX, AX
	JLT  yrow
	DECQ nb+96(FP)
	JEQ  ydone
	MOVQ  abs+104(FP), AX
	SHLQ  $3, AX
	ADDQ  AX, a+24(FP)
	MOVQ  bbs+112(FP), AX
	SHLQ  $3, AX
	ADDQ  AX, b+40(FP)
	MOVQ  cbs+120(FP), AX
	SHLQ  $3, AX
	ADDQ  AX, c+56(FP)
	MOVQ  s+88(FP), AX
	TESTQ AX, AX
	JEQ   ybatch
	MOVQ  m+16(FP), BX
	LEAQ  (AX)(BX*8), AX
	MOVQ  AX, s+88(FP)

ybatch:
	XORQ DX, DX
	JMP  yrow

ydone:
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

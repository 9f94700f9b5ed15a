//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// The delayed update's on-demand kernels (delay.go). Every element keeps
// axpyColsAVX2's chain: it starts from its G element, takes one
// fma(coefficient, element of an earlier column, acc) per earlier column in
// ascending order — the coefficient as the FMA's first factor, the column's
// element as its second, as in axpyColsAVX2 — skipping a coefficient whose
// bits with the sign shifted out are zero (so a NaN is never skipped), and
// ends with one multiply acc*scale. So the NaN that survives where two
// meet is the one the push's kernel keeps, too.

// iota<> holds 0..7, the lane numbers of a zmm of qwords.
DATA iota<>+0(SB)/8, $0
DATA iota<>+8(SB)/8, $1
DATA iota<>+16(SB)/8, $2
DATA iota<>+24(SB)/8, $3
DATA iota<>+32(SB)/8, $4
DATA iota<>+40(SB)/8, $5
DATA iota<>+48(SB)/8, $6
DATA iota<>+56(SB)/8, $7
GLOBL iota<>(SB), RODATA|NOPTR, $64

// DFNEED sets out to the rows of the tile (R8: its first row) that column
// t, pushed at site sreg, needs: rows up to s_t, and from max(hi, s_t+1)
// on, one bit each, within the tile's floor (fl: the rows the tile before
// has not stored). A shift by 64 runs as two, so a count of 64 clears.
// It uses AX, CX, DI and R11.
#define DFNEED(sreg, out) \
	MOVQ    sreg, CX; \
	SUBQ    R8, CX; \
	INCQ    CX; \
	XORQ    AX, AX; \
	CMPQ    CX, AX; \
	CMOVQLT AX, CX; \
	MOVQ    $64, AX; \
	CMPQ    CX, AX; \
	CMOVQGT AX, CX; \
	MOVQ    CX, DI; \
	SHRQ    $1, CX; \
	SUBQ    CX, DI; \
	MOVQ    $-1, R11; \
	SHLQ    CX, R11; \
	MOVQ    DI, CX; \
	SHLQ    CX, R11; \
	NOTQ    R11; \
	MOVQ    hi+16(FP), CX; \
	LEAQ    1(sreg), AX; \
	CMPQ    CX, AX; \
	CMOVQLT AX, CX; \
	SUBQ    R8, CX; \
	XORQ    AX, AX; \
	CMPQ    CX, AX; \
	CMOVQLT AX, CX; \
	MOVQ    $64, AX; \
	CMPQ    CX, AX; \
	CMOVQGT AX, CX; \
	MOVQ    CX, DI; \
	SHRQ    $1, CX; \
	SUBQ    CX, DI; \
	MOVQ    $-1, AX; \
	SHLQ    CX, AX; \
	MOVQ    DI, CX; \
	SHLQ    CX, AX; \
	ORQ     AX, R11; \
	ANDQ    fl-24(SP), R11; \
	MOVQ    R11, out

// DFCOL loads the tile of G's column sreg (the U side) into z0-z7 from
// base AX, ldg in R11.
#define DFCOL(sreg, z0, z1, z2, z3, z4, z5, z6, z7) \
	MOVQ    R11, CX; \
	IMULQ   sreg, CX; \
	ADDQ    R8, CX; \
	LEAQ    (AX)(CX*8), DI; \
	VMOVUPD (DI), z0; \
	VMOVUPD 64(DI), z1; \
	VMOVUPD 128(DI), z2; \
	VMOVUPD 192(DI), z3; \
	VMOVUPD 256(DI), z4; \
	VMOVUPD 320(DI), z5; \
	VMOVUPD 384(DI), z6; \
	VMOVUPD 448(DI), z7

// DFGAT gathers one register of the tile of G's row, from base DI, index
// Z29 (the register's rows times ldg).
#define DFGAT(z) KXNORW K1, K1, K1; VGATHERQPD (DI)(Z29*8), K1, z

// DFROW gathers the tile of G's row sreg (the W side) into z0-z7 from base
// AX.
#define DFROW(sreg, z0, z1, z2, z3, z4, z5, z6, z7) \
	LEAQ      (AX)(sreg*8), DI; \
	VMOVDQA64 Z27, Z29; \
	DFGAT(z0); \
	VPADDQ    Z28, Z29, Z29; \
	DFGAT(z1); \
	VPADDQ    Z28, Z29, Z29; \
	DFGAT(z2); \
	VPADDQ    Z28, Z29, Z29; \
	DFGAT(z3); \
	VPADDQ    Z28, Z29, Z29; \
	DFGAT(z4); \
	VPADDQ    Z28, Z29, Z29; \
	DFGAT(z5); \
	VPADDQ    Z28, Z29, Z29; \
	DFGAT(z6); \
	VPADDQ    Z28, Z29, Z29; \
	DFGAT(z7)

// DFFMA8 adds coefficient zc times the tile in d0-d7 (registers or memory
// operands) to z0-z7: the coefficient is each FMA's first factor.
#define DFFMA8(zc, d0, d1, d2, d3, d4, d5, d6, d7, z0, z1, z2, z3, z4, z5, z6, z7) \
	VFMADD231PD d0, zc, z0; \
	VFMADD231PD d1, zc, z1; \
	VFMADD231PD d2, zc, z2; \
	VFMADD231PD d3, zc, z3; \
	VFMADD231PD d4, zc, z4; \
	VFMADD231PD d5, zc, z5; \
	VFMADD231PD d6, zc, z6; \
	VFMADD231PD d7, zc, z7

// DFSCALE multiplies z0-z7 by scale[t] (t in treg).
#define DFSCALE(treg, z0, z1, z2, z3, z4, z5, z6, z7) \
	MOVQ         scale+48(FP), AX; \
	VBROADCASTSD (AX)(treg*8), Z26; \
	VMULPD       Z26, z0, z0; \
	VMULPD       Z26, z1, z1; \
	VMULPD       Z26, z2, z2; \
	VMULPD       Z26, z3, z3; \
	VMULPD       Z26, z4, z4; \
	VMULPD       Z26, z5, z5; \
	VMULPD       Z26, z6, z6; \
	VMULPD       Z26, z7, z7

// DFSTORE stores z0-z7 to base P under the row mask in mask (one bit a
// row); it uses CX and K2.
#define DFSTM(sh, off, z, mask, P) MOVQ mask, CX; SHRQ $sh, CX; KMOVW CX, K2; VMOVUPD z, K2, off(P)
#define DFSTORE(mask, P, z0, z1, z2, z3, z4, z5, z6, z7) \
	DFSTM(0, 0, z0, mask, P); \
	DFSTM(8, 64, z1, mask, P); \
	DFSTM(16, 128, z2, mask, P); \
	DFSTM(24, 192, z3, mask, P); \
	DFSTM(32, 256, z4, mask, P); \
	DFSTM(40, 320, z5, mask, P); \
	DFSTM(48, 384, z6, mask, P); \
	DFSTM(56, 448, z7, mask, P)

// DFSTFULL stores z0-z7 to base P whole.
#define DFSTFULL(P, z0, z1, z2, z3, z4, z5, z6, z7) \
	VMOVUPD z0, (P); \
	VMOVUPD z1, 64(P); \
	VMOVUPD z2, 128(P); \
	VMOVUPD z3, 192(P); \
	VMOVUPD z4, 256(P); \
	VMOVUPD z5, 320(P); \
	VMOVUPD z6, 384(P); \
	VMOVUPD z7, 448(P)

// DFUNIT adds the unit term, on the row side, to the element of the column
// at P in row sreg, if the store under mask wrote it; it jumps to skip
// otherwise. It uses AX, CX, X30 and X31.
#define DFUNIT(sreg, mask, P, skip) \
	MOVQ    row+88(FP), CX; \
	TESTQ   CX, CX; \
	JEQ     skip; \
	MOVQ    sreg, CX; \
	SUBQ    R8, CX; \
	CMPQ    CX, $64; \
	JAE     skip; \
	MOVQ    mask, AX; \
	BTQ     CX, AX; \
	JCC     skip; \
	MOVQ    $0x3ff0000000000000, AX; \
	VMOVQ   AX, X30; \
	VMOVSD  (P)(CX*8), X31; \
	VADDSD  X30, X31, X31; \
	VMOVSD  X31, (P)(CX*8)

// DRGATHER loads block j's sites of sector A (SI) and B (R13) under kv
// (the block's live lanes), their multiples of ldg (Z30), and gathers the
// block's G elements: G(r, s_t) into the U rows (bases R8, R10: index
// s_t*ldg) and G(s_t, r) into the W rows (bases R9, R11: index s_t).
#define DRGATHER(off, kv, au, aw, bu, bw) \
	VMOVDQU64.Z DelaySector_sites+off(SI), kv, Z27; \
	VPMULUDQ    Z30, Z27, Z28; \
	VPXORQ      au, au, au; \
	VPXORQ      aw, aw, aw; \
	KMOVW       kv, K5; \
	VGATHERQPD  (R8)(Z28*8), K5, au; \
	KMOVW       kv, K6; \
	VGATHERQPD  (R9)(Z27*8), K6, aw; \
	VMOVDQU64.Z DelaySector_sites+off(R13), kv, Z27; \
	VPMULUDQ    Z30, Z27, Z28; \
	VPXORQ      bu, bu, bu; \
	VPXORQ      bw, bw, bw; \
	KMOVW       kv, K7; \
	VGATHERQPD  (R10)(Z28*8), K7, bu; \
	KMOVW       kv, K5; \
	VGATHERQPD  (R11)(Z27*8), K5, bw

// DRPIV broadcasts lane CX of the four rows' blocks, the step's finished
// elements, into Z16-Z19 and scales them by the step's scales (SU and SW
// of A and B at t' = BX) as the final pass scales the rows.
#define DRPIV(au, aw, bu, bw) \
	VPBROADCASTQ CX, Z24; \
	VPERMPD      au, Z24, Z16; \
	VPERMPD      aw, Z24, Z17; \
	VPERMPD      bu, Z24, Z18; \
	VPERMPD      bw, Z24, Z19; \
	VMULPD.BCST  DelaySector_su(SI)(BX*8), Z16, Z16; \
	VMULPD.BCST  DelaySector_sw(SI)(BX*8), Z17, Z17; \
	VMULPD.BCST  DelaySector_su(R13)(BX*8), Z18, Z18; \
	VMULPD.BCST  DelaySector_sw(R13)(BX*8), Z19, Z19

// DRBLK updates block j (coefficients at byte off of a column, mask byte
// j) of the four rows by the step's elements: each row's coefficients are
// the block of column t' (R12 = t'·256 bytes) of its site submatrix (CW for
// a U row, CU for a W row), loaded under that column's nonzero bits, which
// also mask the FMA; Record sets them only for rows t' < t < m.
#define DRBLK(j, off, au, aw, bu, bw) \
	KMOVW       DelaySector_nzw+j(SI)(BX*4), K6; \
	VMOVUPD.Z   DelaySector_cwData+off(SI)(R12*1), K6, Z20; \
	VFMADD231PD Z16, Z20, K6, au; \
	KMOVW       DelaySector_nzu+j(SI)(BX*4), K7; \
	VMOVUPD.Z   DelaySector_cuData+off(SI)(R12*1), K7, Z21; \
	VFMADD231PD Z17, Z21, K7, aw; \
	KMOVW       DelaySector_nzw+j(R13)(BX*4), K6; \
	VMOVUPD.Z   DelaySector_cwData+off(R13)(R12*1), K6, Z22; \
	VFMADD231PD Z18, Z22, K6, bu; \
	KMOVW       DelaySector_nzu+j(R13)(BX*4), K7; \
	VMOVUPD.Z   DelaySector_cuData+off(R13)(R12*1), K7, Z23; \
	VFMADD231PD Z19, Z23, K7, bw

// DRSTORE scales one block of the four rows by their scales, keeps them in
// the sectors' lastU and lastW, and scatters them to the rows, ldu apart
// (Z25 = lane·ldu; bases AX, DX, R8, R9), then steps the bases a block of
// columns on (R10 bytes).
#define DRSTORE(off, kv, au, aw, bu, bw) \
	VMOVUPD.Z   DelaySector_su+off(SI), kv, Z20; \
	VMOVUPD.Z   DelaySector_sw+off(SI), kv, Z21; \
	VMOVUPD.Z   DelaySector_su+off(R13), kv, Z22; \
	VMOVUPD.Z   DelaySector_sw+off(R13), kv, Z23; \
	VMULPD      Z20, au, au; \
	VMULPD      Z21, aw, aw; \
	VMULPD      Z22, bu, bu; \
	VMULPD      Z23, bw, bw; \
	VMOVUPD     au, kv, DelaySector_lastU+off(SI); \
	VMOVUPD     aw, kv, DelaySector_lastW+off(SI); \
	VMOVUPD     bu, kv, DelaySector_lastU+off(R13); \
	VMOVUPD     bw, kv, DelaySector_lastW+off(R13); \
	KMOVW       kv, K5; \
	VSCATTERQPD au, K5, (AX)(Z25*8); \
	KMOVW       kv, K6; \
	VSCATTERQPD aw, K6, (DX)(Z25*8); \
	KMOVW       kv, K7; \
	VSCATTERQPD bu, K7, (R8)(Z25*8); \
	KMOVW       kv, K5; \
	VSCATTERQPD bw, K5, (R9)(Z25*8); \
	ADDQ        R10, AX; \
	ADDQ        R10, DX; \
	ADDQ        R10, R8; \
	ADDQ        R10, R9

// DRNEXT steps t', its column offset and its lane.
#define DRNEXT \
	INCQ BX; \
	ADDQ $256, R12; \
	INCQ CX

// func delayRowsAVX512(m, r int64, sa, sb *DelaySector, ldg, ldu int64, ga, ua, wa, gb, ub, wb *float64)
//
// Row r of both sides of two sectors (A at SI, B at R13) for
// 0 < m <= 32, right-looking and four rows abreast, so the four latency
// chains overlap: the rows live in Z0-Z3 (U of A), Z4-Z7 (W of A), Z8-Z11
// (U of B) and Z12-Z15 (W of B), lane t of block t/8 holding element t,
// first the gathered G elements. Step t' broadcasts its finished elements,
// scaled, and adds them to every later element whose coefficient (CW(t, t')
// for a U row, CU(t, t') for a W row: column t' of the site submatrix) is
// not ±0, under that column's nonzero bits, so each element still takes its
// FMAs in ascending t'. Step t' runs in the section of its block
// (drsec0-drsec3), which touches that block and every later block with live
// lanes (DI of them); K1-K4 hold the live lanes of blocks 0-3. Last, each
// block is scaled by its scales, as the steps scaled the broadcast
// elements, and scattered to its row.
TEXT ·delayRowsAVX512(SB), NOSPLIT, $0-96
	MOVQ  m+0(FP), DX
	MOVQ  $1, AX
	MOVQ  DX, CX
	SHLQ  CX, AX
	DECQ  AX                 // the live lanes, one bit each
	KMOVW AX, K1
	SHRQ  $8, AX
	KMOVW AX, K2
	SHRQ  $8, AX
	KMOVW AX, K3
	SHRQ  $8, AX
	KMOVW AX, K4
	LEAQ  7(DX), DI
	SHRQ  $3, DI             // live blocks

	MOVQ         r+8(FP), CX
	MOVQ         ldg+32(FP), BX
	VPBROADCASTQ BX, Z30
	IMULQ        CX, BX      // r*ldg
	MOVQ         ga+48(FP), AX
	LEAQ         (AX)(CX*8), R8  // G_A(r, 0)
	LEAQ         (AX)(BX*8), R9  // G_A(0, r)
	MOVQ         gb+72(FP), AX
	LEAQ         (AX)(CX*8), R10 // G_B(r, 0)
	LEAQ         (AX)(BX*8), R11 // G_B(0, r)
	MOVQ         sa+16(FP), SI
	MOVQ         sb+24(FP), R13
	DRGATHER(0, K1, Z0, Z4, Z8, Z12)
	CMPQ         DI, $2
	JLT          drinit
	DRGATHER(64, K2, Z1, Z5, Z9, Z13)
	CMPQ         DI, $3
	JLT          drinit
	DRGATHER(128, K3, Z2, Z6, Z10, Z14)
	CMPQ         DI, $4
	JLT          drinit
	DRGATHER(192, K4, Z3, Z7, Z11, Z15)

drinit:
	XORQ BX, BX              // t'
	XORQ CX, CX              // t' mod 8
	XORQ R12, R12            // t'·256: column t' of a site submatrix, in bytes

drsec0:
	CMPQ BX, DX
	JGE  drfinish
	DRPIV(Z0, Z4, Z8, Z12)
	DRBLK(0, 0, Z0, Z4, Z8, Z12)
	CMPQ DI, $2
	JLT  drnext0
	DRBLK(1, 64, Z1, Z5, Z9, Z13)
	CMPQ DI, $3
	JLT  drnext0
	DRBLK(2, 128, Z2, Z6, Z10, Z14)
	CMPQ DI, $4
	JLT  drnext0
	DRBLK(3, 192, Z3, Z7, Z11, Z15)

drnext0:
	DRNEXT
	CMPQ CX, $8
	JLT  drsec0
	XORQ CX, CX

drsec1:
	CMPQ BX, DX
	JGE  drfinish
	DRPIV(Z1, Z5, Z9, Z13)
	DRBLK(1, 64, Z1, Z5, Z9, Z13)
	CMPQ DI, $3
	JLT  drnext1
	DRBLK(2, 128, Z2, Z6, Z10, Z14)
	CMPQ DI, $4
	JLT  drnext1
	DRBLK(3, 192, Z3, Z7, Z11, Z15)

drnext1:
	DRNEXT
	CMPQ CX, $8
	JLT  drsec1
	XORQ CX, CX

drsec2:
	CMPQ BX, DX
	JGE  drfinish
	DRPIV(Z2, Z6, Z10, Z14)
	DRBLK(2, 128, Z2, Z6, Z10, Z14)
	CMPQ DI, $4
	JLT  drnext2
	DRBLK(3, 192, Z3, Z7, Z11, Z15)

drnext2:
	DRNEXT
	CMPQ CX, $8
	JLT  drsec2
	XORQ CX, CX

drsec3:
	CMPQ BX, DX
	JGE  drfinish
	DRPIV(Z3, Z7, Z11, Z15)
	DRBLK(3, 192, Z3, Z7, Z11, Z15)
	DRNEXT
	JMP  drsec3

drfinish:
	MOVQ         ldu+40(FP), R10
	VPBROADCASTQ R10, Z26
	VMOVDQU64    iota<>(SB), Z25
	VPMULUDQ     Z26, Z25, Z25
	SHLQ         $6, R10     // 8 columns, in bytes
	MOVQ         r+8(FP), CX
	MOVQ         ua+56(FP), AX
	LEAQ         (AX)(CX*8), AX
	MOVQ         wa+64(FP), DX
	LEAQ         (DX)(CX*8), DX
	MOVQ         ub+80(FP), R8
	LEAQ         (R8)(CX*8), R8
	MOVQ         wb+88(FP), R9
	LEAQ         (R9)(CX*8), R9
	DRSTORE(0, K1, Z0, Z4, Z8, Z12)
	CMPQ         DI, $2
	JLT          drdone
	DRSTORE(64, K2, Z1, Z5, Z9, Z13)
	CMPQ         DI, $3
	JLT          drdone
	DRSTORE(128, K3, Z2, Z6, Z10, Z14)
	CMPQ         DI, $4
	JLT          drdone
	DRSTORE(192, K4, Z3, Z7, Z11, Z15)

drdone:
	VZEROUPPER
	RET

// func delayFillAVX512(n, m, hi int64, gm *float64, ldg int64, sites *int, scale, c *float64, ldc int64, a *float64, lda int64, row int64)
//
// One side's fill for n >= 64, left-looking over tiles of 64 rows, two
// columns abreast: Z0-Z7 hold column t's tile and Z8-Z15 column t+1's,
// first the tiles of G's columns s_t, s_t+1 (row = 0; plain loads) or of
// its rows (row = 1; gathers). Each earlier column t' < t is loaded once
// (Z16-Z23) and added to both, with a broadcast coefficient (c[t + t'*ldc],
// then c[t+1 + t'*ldc], adjacent) unless it is ±0. Column t is then
// scaled, stored under its row mask (m1: DFNEED) and given its unit term;
// column t+1 adds column t, read back from memory where every row of the
// tile now holds its final bits, and is finished the same way (m2). An odd
// last column runs alone. A pair that needs no row of the tile is skipped.
// The tiles start 64 rows apart; the last starts at n-64, so it may cover
// rows that the tile before stored, which its floor (fl) masks out.
TEXT ·delayFillAVX512(SB), NOSPLIT, $32-96
	MOVQ lda+80(FP), R9
	SHLQ $3, R9              // lda in bytes
	MOVQ ldc+64(FP), R10
	SHLQ $3, R10             // ldc in bytes
	XORQ R8, R8              // the tile's first row
	MOVQ $-1, AX
	MOVQ AX, fl-24(SP)

dftile:
	// Row side: Z27 = (r0+lane)*ldg, Z28 = 8*ldg.
	VMOVDQU64    iota<>(SB), Z27
	VPBROADCASTQ R8, Z26
	VPADDQ       Z26, Z27, Z27
	MOVQ         ldg+32(FP), AX
	VPBROADCASTQ AX, Z26
	VPMULUDQ     Z26, Z27, Z27
	SHLQ         $3, AX
	VPBROADCASTQ AX, Z28
	XORQ         BX, BX      // t
	MOVQ         sites+40(FP), DX

dfcol:
	LEAQ 1(BX), AX
	CMPQ AX, m+8(FP)
	JGT  dfnexttile
	JEQ  dfsingle
	MOVQ (DX)(BX*8), SI      // s_t
	MOVQ 8(DX)(BX*8), R13    // s_t+1
	DFNEED(SI, m1-8(SP))
	DFNEED(R13, m2-16(SP))
	MOVQ m1-8(SP), AX
	ORQ  m2-16(SP), AX
	JEQ  dfpairnext

	MOVQ  gm+24(FP), AX
	MOVQ  row+88(FP), CX
	TESTQ CX, CX
	JNE   dfpairrow
	MOVQ  ldg+32(FP), R11
	DFCOL(SI, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	DFCOL(R13, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	JMP   dfpairchain

dfpairrow:
	DFROW(SI, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	DFROW(R13, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)

dfpairchain:
	MOVQ  c+56(FP), DI
	LEAQ  (DI)(BX*8), DI     // c[t + t'*ldc], t' = 0
	MOVQ  a+72(FP), R11
	LEAQ  (R11)(R8*8), R11   // the tile of column t'
	MOVQ  BX, R12            // t' left
	TESTQ R12, R12
	JEQ   dfpairlast

	PCALIGN $64
dfpairloop:
	VMOVUPD (R11), Z16
	VMOVUPD 64(R11), Z17
	VMOVUPD 128(R11), Z18
	VMOVUPD 192(R11), Z19
	VMOVUPD 256(R11), Z20
	VMOVUPD 320(R11), Z21
	VMOVUPD 384(R11), Z22
	VMOVUPD 448(R11), Z23
	MOVQ    (DI), AX
	SHLQ    $1, AX
	JEQ     dfpairb
	VBROADCASTSD (DI), Z24
	DFFMA8(Z24, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)

dfpairb:
	MOVQ 8(DI), AX
	SHLQ $1, AX
	JEQ  dfpairstep
	VBROADCASTSD 8(DI), Z25
	DFFMA8(Z25, Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)

dfpairstep:
	ADDQ R10, DI
	ADDQ R9, R11
	DECQ R12
	JNE  dfpairloop

dfpairlast:
	// R11 is column t's tile, DI c[t + t*ldc].
	DFSCALE(BX, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	CMPQ m1-8(SP), $-1
	JNE  dfpairm1
	DFSTFULL(R11, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	JMP  dfpairu1

dfpairm1:
	DFSTORE(m1-8(SP), R11, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)

dfpairu1:
	DFUNIT(SI, m1-8(SP), R11, dfpairt1)

dfpairt1:
	MOVQ 8(DI), AX
	SHLQ $1, AX
	JEQ  dfpairfin
	VBROADCASTSD 8(DI), Z25
	DFFMA8(Z25, (R11), 64(R11), 128(R11), 192(R11), 256(R11), 320(R11), 384(R11), 448(R11), Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)

dfpairfin:
	ADDQ R9, R11
	LEAQ 1(BX), R12
	DFSCALE(R12, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	CMPQ m2-16(SP), $-1
	JNE  dfpairm2
	DFSTFULL(R11, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	JMP  dfpairu2

dfpairm2:
	DFSTORE(m2-16(SP), R11, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)

dfpairu2:
	DFUNIT(R13, m2-16(SP), R11, dfpairnext)

dfpairnext:
	ADDQ $2, BX
	JMP  dfcol

dfsingle:
	MOVQ (DX)(BX*8), SI
	DFNEED(SI, m1-8(SP))
	MOVQ  m1-8(SP), AX
	TESTQ AX, AX
	JEQ   dfnexttile
	MOVQ  gm+24(FP), AX
	MOVQ  row+88(FP), CX
	TESTQ CX, CX
	JNE   dfsinglerow
	MOVQ  ldg+32(FP), R11
	DFCOL(SI, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	JMP   dfsinglechain

dfsinglerow:
	DFROW(SI, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)

dfsinglechain:
	MOVQ  c+56(FP), DI
	LEAQ  (DI)(BX*8), DI
	MOVQ  a+72(FP), R11
	LEAQ  (R11)(R8*8), R11
	MOVQ  BX, R12
	TESTQ R12, R12
	JEQ   dfsinglelast

	PCALIGN $64
dfsingleloop:
	MOVQ         (DI), AX
	SHLQ         $1, AX
	JEQ          dfsinglestep
	VBROADCASTSD (DI), Z24
	DFFMA8(Z24, (R11), 64(R11), 128(R11), 192(R11), 256(R11), 320(R11), 384(R11), 448(R11), Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)

dfsinglestep:
	ADDQ R10, DI
	ADDQ R9, R11
	DECQ R12
	JNE  dfsingleloop

dfsinglelast:
	DFSCALE(BX, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	DFSTORE(m1-8(SP), R11, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	DFUNIT(SI, m1-8(SP), R11, dfnexttile)

dfnexttile:
	MOVQ n+0(FP), AX
	LEAQ 64(R8), CX          // this tile's end
	CMPQ CX, AX
	JGE  dfdone
	MOVQ $-1, DI
	LEAQ 64(CX), R11
	CMPQ R11, AX
	JLE  dfplain
	LEAQ -64(AX), R8         // the last tile ends at row n
	SUBQ R8, CX
	SHLQ CX, DI              // its rows from the tile before's end on
	MOVQ DI, fl-24(SP)
	JMP  dftile

dfplain:
	MOVQ CX, R8
	MOVQ DI, fl-24(SP)
	JMP  dftile

dfdone:
	VZEROUPPER
	RET

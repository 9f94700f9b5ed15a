//go:build amd64 && !purego

package blas

// Runtime selection of the micro-kernel, by what the CPU and the OS offer
// (CPUID and XGETBV directly, no external deps):
//
//	avx512-8x8  dgemm8x8asm  AVX512F, and opmask + zmm state OS-enabled
//	avx2-8x4    dgemm8x4asm  FMA + AVX2, and ymm state OS-enabled
//	go-4x4      microKernel4x4, everything else
//
// The 8x4 kernel holds its tile in eight ymm accumulators (two a-vector
// loads and four b broadcasts per k step): 2 FMA issues per cycle on
// Haswell-and-later cores, the shape BLIS uses for double precision on that
// family. The 8x8 kernel is the same tile height at twice the vector width:
// eight zmm accumulators, one a load and eight broadcast-from-memory FMAs
// per k step. Both read the same mr = 8 packed A and run the same FMA chain
// over k for every element of C, so blas.Gemm's bits do not depend on which
// of the two runs (TestGemmBitwiseAcrossKernels); only nr, the packed B
// panel width, differs.

//go:noescape
func dgemm8x4asm(kc int64, a, b, c *float64, ldc int64)

//go:noescape
func dgemm8x8asm(kc int64, a, b, c *float64, ldc int64)

//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

//go:noescape
func axpyAVX2(n int64, alpha float64, x, y *float64)

//go:noescape
func axpyColsAVX2(n, m int64, a *float64, lda int64, x *float64, incx int64, y0 *float64, incy0 int64, scale float64, y *float64)

//go:noescape
func dotAVX2(n int64, x, y *float64) float64

//go:noescape
func reflectAVX2(m, n int64, v *float64, negTau float64, c *float64, ldc int64)

//go:noescape
func packRowsAVX2(kc int64, alpha float64, src *float64, ld int64, dst *float64, w int64)

//go:noescape
func packCols4AVX2(kc int64, alpha float64, src *float64, ld int64, dst *float64, w int64)

// microKernel runs the kernel init selected: C[r + q*ldc] += sum_k
// a[k*mr+r] * b[k*nr+q] over one packed micro-panel pair. It must stay a
// plain function (see runMacro).
func microKernel(kc int, a, b, c []float64, ldc int) {
	if kernNR == 8 {
		dgemm8x8asm(int64(kc), &a[0], &b[0], &c[0], int64(ldc))
	} else if kernMR == 8 {
		dgemm8x4asm(int64(kc), &a[0], &b[0], &c[0], int64(ldc))
	} else {
		microKernel4x4(kc, a, b, c, ldc)
	}
}

// axpy, axpyCols, dot, applyReflector, packRows and packCols are the
// stride-1 layer under the micro-kernel: on the CPUs that run an assembly
// kernel (kernMR == 8) they hand a non-empty vector or a full micro-panel to
// the AVX2 kernels of gemm_amd64.s, and everything else — other CPUs,
// partial panels, n = 0 — to the portable loops the purego build runs. Each
// checks the extents the kernel will touch before taking an element's
// address. Like microKernel they are plain functions: which body runs
// depends on the CPU and on the operand's extent, never on a setting.

// axpy computes y[i] += alpha*x[i] over len(x) <= len(y) elements.
func axpy(alpha float64, x, y []float64) {
	if n := len(x); kernMR == 8 && n > 0 {
		_ = y[n-1]
		axpyAVX2(int64(n), alpha, &x[0], &y[0])
		return
	}
	axpyGo(alpha, x, y)
}

// axpyCols computes y[i] = scale*(y0[i*incy0] + sum_t x[t*incx]*a[t*lda+i])
// for i < n, ±0 coefficients skipped: the m axpy calls, bitwise, in one pass
// over y, and one multiply per element on the way out.
func axpyCols(n, m int, a []float64, lda int, x []float64, incx int, y0 []float64, incy0 int, scale float64, y []float64) {
	if kernMR == 8 && n > 0 {
		_, _ = y0[(n-1)*incy0], y[n-1]
		pa, px := &y[0], &y[0] // m = 0 reads neither a nor x, which may be empty
		if m > 0 {
			_, _ = a[(m-1)*lda+n-1], x[(m-1)*incx]
			pa, px = &a[0], &x[0]
		}
		axpyColsAVX2(int64(n), int64(m), pa, int64(lda), px, int64(incx), &y0[0], int64(incy0), scale, &y[0])
		return
	}
	axpyColsGo(n, m, a, lda, x, incx, y0, incy0, scale, y)
}

// dot returns x . y over len(x) <= len(y) elements.
func dot(x, y []float64) float64 {
	if n := len(x); kernMR == 8 && n > 0 {
		_ = y[n-1]
		return dotAVX2(int64(n), &x[0], &y[0])
	}
	return dotGo(x, y)
}

// applyReflector applies I - tau*v*v^T to the m x n matrix in c (leading
// dimension ldc): per column, the dot and the axpy Dot and Axpy would run.
func applyReflector(m, n int, v []float64, tau float64, c []float64, ldc int) {
	if kernMR == 8 && m > 0 && n > 0 {
		_, _ = v[m-1], c[(n-1)*ldc+m-1]
		reflectAVX2(int64(m), int64(n), &v[0], -tau, &c[0], int64(ldc))
		return
	}
	applyReflectorGo(m, n, v, tau, c, ldc)
}

// packRows is packRowsGo with full panels (iw == w) on the vector kernel.
func packRows(dst, src []float64, ld, kc, w, iw int, alpha float64) {
	if kernMR == 8 && iw == w && kc > 0 {
		_, _ = src[(kc-1)*ld+w-1], dst[kc*w-1]
		packRowsAVX2(int64(kc), alpha, &src[0], int64(ld), &dst[0], int64(w))
		return
	}
	packRowsGo(dst, src, ld, kc, w, iw, alpha)
}

// packCols is packColsGo with full panels (jw == w) on the transposing
// kernel, four source columns at a time.
func packCols(dst, src []float64, ld, kc, w, jw int, alpha float64) {
	if kernMR == 8 && jw == w && kc > 0 {
		_, _ = src[(w-1)*ld+kc-1], dst[kc*w-1]
		for q := 0; q < w; q += 4 {
			packCols4AVX2(int64(kc), alpha, &src[q*ld], int64(ld), &dst[q], int64(w))
		}
		return
	}
	packColsGo(dst, src, ld, kc, w, jw, alpha)
}

func init() {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return
	}
	_, _, c1, _ := cpuidex(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
	)
	if c1&fmaBit == 0 || c1&osxsaveBit == 0 {
		return
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be OS-enabled.
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return
	}
	_, b7, _, _ := cpuidex(7, 0)
	const avx2Bit = 1 << 5
	if b7&avx2Bit == 0 {
		return
	}
	kernMR, kernNR = 8, 4
	// AVX512F, with XCR0 bits 5-7 (opmask, zmm0-15 upper halves, zmm16-31)
	// OS-enabled beside SSE and AVX.
	const avx512fBit = 1 << 16
	if b7&avx512fBit != 0 && xcr0&0xe6 == 0xe6 {
		kernNR = 8
	}
}

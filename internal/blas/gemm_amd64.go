//go:build amd64 && !purego

package blas

// Runtime selection of the AVX2+FMA micro-kernel. The assembly kernel in
// gemm_amd64.s computes an 8x4 register tile (eight ymm accumulators, two
// a-vector loads and four b broadcasts per k step), which is 2 FMA issues
// per cycle on Haswell-and-later cores — the same shape BLIS uses for
// double precision on this family. Feature detection is done with CPUID
// and XGETBV directly (no external deps): FMA + AVX2 + OS-enabled ymm
// state are all required.

//go:noescape
func dgemm8x4asm(kc int64, a, b, c *float64, ldc int64)

//go:noescape
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

// microKernel runs the kernel init selected: C[r + q*ldc] += sum_k
// a[k*mr+r] * b[k*nr+q] over one packed micro-panel pair. It must stay a
// plain function (see runMacro).
func microKernel(kc int, a, b, c []float64, ldc int) {
	if kernMR == 8 {
		dgemm8x4asm(int64(kc), &a[0], &b[0], &c[0], int64(ldc))
	} else {
		microKernel4x4(kc, a, b, c, ldc)
	}
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
}

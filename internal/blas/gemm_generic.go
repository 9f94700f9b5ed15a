//go:build !amd64 || purego

package blas

// microKernel is the portable build's only kernel (see gemm_amd64.go).
func microKernel(kc int, a, b, c []float64, ldc int) { microKernel4x4(kc, a, b, c, ldc) }

//go:build amd64 && !purego

package lapack

// qrpGateSlack is the factor by which TestQRPBlockedNotSlowerThanLevel2 lets
// the blocked QRP trail the level-2 reference: none on the build whose GEMM
// is the AVX2 micro-kernel. The level-2 reference runs on the AVX2 dot/axpy
// kernels too and doubled its rate with them, so blocking pays about 2x at
// N=512 here (1.8-2.1x measured), not the 3.5x it paid over scalar loops;
// should that margin ever fall under 1.3x, raise the test's N, not this.
const qrpGateSlack = 1

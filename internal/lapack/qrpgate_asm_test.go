//go:build amd64 && !purego

package lapack

// qrpGateSlack is the factor by which TestQRPBlockedNotSlowerThanLevel2 lets
// the blocked QRP trail the level-2 reference: none on the build whose GEMM
// is the AVX2 micro-kernel, where blocking pays 3.5x.
const qrpGateSlack = 1

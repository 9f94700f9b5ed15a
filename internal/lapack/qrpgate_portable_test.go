//go:build !amd64 || purego

package lapack

// qrpGateSlack: with the portable 4x4 micro-kernel the blocked QRP only
// draws level with the level-2 loop at N=512 (0.93x measured, runs spreading
// 0.73-1.44x on a shared box; 1.3x at the test's N=768), so this build can
// hold it to "not twice as slow" and no tighter.
const qrpGateSlack = 2

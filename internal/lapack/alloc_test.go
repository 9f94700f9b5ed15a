//go:build !race

package lapack

import (
	"testing"

	"questgo/internal/mat"
	"questgo/internal/rng"
)

// TestQRFactorNoViewAllocs: at the 4x4-lattice size the factorization takes
// one view per column (geqr2); each must be a stack value (an inlined
// mat.View). The QR header stays on the caller's stack (QRFactor and
// QRPFactor inline) and its buffer comes back from the pool Release hands
// it to, so a factor-and-release cycle — with FormQ between, and
// through the pivoted factorization and the pivot pool too — allocates
// nothing. Race instrumentation allocates on its own, hence the build tag.
func TestQRFactorNoViewAllocs(t *testing.T) {
	const n = 16
	src := randomDense(rng.New(3), n, n)
	a := mat.New(n, n)
	q := mat.New(n, n)
	for _, tc := range []struct {
		name  string
		pivot bool
		formQ bool
	}{{"QRFactor", false, false}, {"QRFactor+FormQ", false, true}, {"QRPFactor+FormQ", true, true}} {
		run := func() {
			a.CopyFrom(src)
			var qr *QR
			var perm []int
			if tc.pivot {
				qr, perm = QRPFactor(a)
			} else {
				qr = QRFactor(a)
			}
			if tc.formQ {
				qr.FormQ(q)
			}
			qr.Release()
			PutPivot(&perm)
		}
		run() // warm the tau and scratch pools
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s(%dx%d) allocated %.1f objects per call, want 0", tc.name, n, n, allocs)
		}
	}
}

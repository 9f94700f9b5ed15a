//go:build !race

package lapack

import (
	"testing"

	"questgo/internal/mat"
	"questgo/internal/rng"
)

// TestQRFactorNoViewAllocs: at the 4x4-lattice size the factorization takes
// one view per column (geqr2) plus the panel views; each must be a stack
// value (an inlined mat.View). What remains is the returned QR header and
// the slice header Release hands to the tau pool — the T strip is a pooled
// matrix and costs nothing — and FormQ, reading that strip, adds none.
// Race instrumentation allocates on its own, hence the build tag.
func TestQRFactorNoViewAllocs(t *testing.T) {
	const n = 16
	src := randomDense(rng.New(3), n, n)
	a := mat.New(n, n)
	q := mat.New(n, n)
	for _, tc := range []struct {
		name  string
		formQ bool
	}{{"QRFactor", false}, {"QRFactor+FormQ", true}} {
		run := func() {
			a.CopyFrom(src)
			qr := QRFactor(a)
			if tc.formQ {
				qr.FormQ(q)
			}
			qr.Release()
		}
		run() // warm the tau and scratch pools
		if allocs := testing.AllocsPerRun(20, run); allocs > 2 {
			t.Errorf("%s(%dx%d) allocated %.1f objects per call, want <= 2 (the QR header and the slice header Release pools)", tc.name, n, n, allocs)
		}
	}
}

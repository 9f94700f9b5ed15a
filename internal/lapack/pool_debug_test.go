//go:build qmcdebug

package lapack

import (
	"strings"
	"testing"

	"questgo/internal/mat"
)

// mustPanicContains runs f and asserts it panics with a message containing
// substr.
func mustPanicContains(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("expected string panic, got %T: %v", r, r)
		}
		if !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not contain %q", msg, substr)
		}
	}()
	f()
}

func TestDebugPoolCompiledIn(t *testing.T) {
	if !DebugPool {
		t.Fatal("lapack.DebugPool must be true under the qmcdebug tag")
	}
}

// TestDoublePutPivotPanics: PutPivot through a surviving alias of an
// already-pooled slice — the hazard the nil-out cannot catch — must trip
// the sanitizer instead of silently pooling the storage twice.
func TestDoublePutPivotPanics(t *testing.T) {
	qr, perm := QRPFactor(testMatrix(8, 8, 23))
	qr.Release()
	alias := perm
	PutPivot(&perm)
	mustPanicContains(t, "double put", func() { PutPivot(&alias) })
}

// TestDoubleReleaseAliasPanics: releasing through two copies of the QR
// value (so the nil-out of one copy cannot protect the other) must panic —
// for tau and, living in the same buffer, the T strip, whether the
// factorization formed the T or FormQ did after the copy was taken.
func TestDoubleReleaseAliasPanics(t *testing.T) {
	qr := QRFactor(testMatrix(8, 8, 29))
	cp := *qr
	qr.Release()
	mustPanicContains(t, "double put", func() { cp.Release() })

	lazy, perm := QRPFactorLevel2(testMatrix(8, 8, 31))
	PutPivot(&perm)
	cp = *lazy
	lazy.FormQ(mat.New(8, 8))
	lazy.Release()
	mustPanicContains(t, "double put", func() { cp.Release() })
}

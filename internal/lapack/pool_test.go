package lapack

import (
	"testing"

	"questgo/internal/mat"
	"questgo/internal/rng"
)

func testMatrix(rows, cols int, seed uint64) *mat.Dense {
	return randomDense(rng.New(seed), rows, cols)
}

// TestReleaseIdempotent: a second Release on the same QR must be a no-op
// (the tau reference is nilled on the first), so defensive double-releases
// never pool the same backing array twice.
func TestReleaseIdempotent(t *testing.T) {
	m := testMatrix(8, 8, 3)
	qr := QRFactor(m)
	if cap(qr.Tau) == 0 {
		t.Fatal("factorization has no tau buffer")
	}
	qr.Release()
	if qr.Tau != nil || qr.t.Data != nil {
		t.Fatal("Release did not clear the tau and T references")
	}
	qr.Release() // must be a no-op, not a second pool insert
	// Two subsequent factorizations must not alias: if the double release
	// had pooled the buffer twice, these would share tau and T storage.
	qr1 := QRFactor(testMatrix(8, 8, 5))
	qr2 := QRFactor(testMatrix(8, 8, 7))
	if &qr1.Tau[0] == &qr2.Tau[0] || &qr1.t.Data[0] == &qr2.t.Data[0] {
		t.Fatal("two live factorizations share a buffer after double release")
	}
	qr1.Release()
	qr2.Release()
}

// TestStaleReleaseAfterRefactor: a Release through a handle whose storage
// a later factorization has already reused must stay a no-op. Only the
// buffer is pooled, never the header, so the stale handle still holds its
// nilled tau and cannot pool the live factorization's storage.
func TestStaleReleaseAfterRefactor(t *testing.T) {
	for _, factor := range []func(*mat.Dense) *QR{
		QRFactor,
		func(a *mat.Dense) *QR { qr, perm := QRPFactor(a); PutPivot(&perm); return qr },
	} {
		stale := factor(testMatrix(8, 8, 41))
		stale.Release()
		live := factor(testMatrix(8, 8, 43))
		if live == stale {
			t.Fatal("a new factorization reused a released QR header")
		}
		stale.Release() // must not pool live's buffer
		if cap(live.Tau) == 0 {
			t.Fatal("stale Release cleared the live factorization")
		}
		other := factor(testMatrix(8, 8, 47))
		if &other.Tau[0] == &live.Tau[0] {
			t.Fatal("stale Release pooled a live factorization's buffer")
		}
		live.Release()
		other.Release()
	}
}

// TestStripSharesTauBuffer pins the ownership rule Release relies on: the T
// strip is the qrBlock x k tail of tau's backing array, zeroed at birth for
// all three factorizations, so pooling tau pools the strip and a QR whose
// tau is empty has no strip to leak.
func TestStripSharesTauBuffer(t *testing.T) {
	dirty := QRFactor(testMatrix(40, 40, 19))
	dirty.FormQ(mat.New(40, 40)) // fill every panel's T before pooling
	dirty.Release()
	lazy, perm := QRPFactorLevel2(testMatrix(40, 40, 21))
	PutPivot(&perm)
	k := len(lazy.Tau)
	if k != 40 || len(lazy.t.Data) != qrBlock*k || &lazy.Tau[:k+1][k] != &lazy.t.Data[0] {
		t.Fatalf("strip is %d floats, want the %d behind tau in the same array", len(lazy.t.Data), qrBlock*k)
	}
	if lazy.nt != 0 || lazy.t.MaxAbs() != 0 {
		t.Fatalf("QRPFactorLevel2 forms no T: want nt=0 and a zeroed strip, got nt=%d max|T|=%g", lazy.nt, lazy.t.MaxAbs())
	}
	lazy.MulQ(true, testMatrix(40, 3, 23))
	if lazy.nt != k {
		t.Fatalf("MulQ left nt=%d, want every panel's T formed (%d)", lazy.nt, k)
	}
	lazy.Release()
	empty := QRFactor(mat.New(8, 0))
	if len(empty.t.Data) != 0 {
		t.Fatalf("a factorization with no reflectors has a %d-float strip", len(empty.t.Data))
	}
	empty.Release()
}

// TestPutPivotIdempotent: PutPivot nils the caller's slice, so a second put
// through the same variable is a no-op and two later factorizations can
// never be handed the same pivot storage.
func TestPutPivotIdempotent(t *testing.T) {
	qr, perm := QRPFactor(testMatrix(8, 8, 11))
	qr.Release()
	if len(perm) == 0 {
		t.Fatal("QRPFactor returned no pivot")
	}
	PutPivot(&perm)
	if perm != nil {
		t.Fatal("PutPivot did not nil the caller's slice")
	}
	PutPivot(&perm) // second put through the same variable: no-op
	PutPivot(nil)   // nil pointer: no-op

	qr1, p1 := QRPFactor(testMatrix(8, 8, 13))
	qr2, p2 := QRPFactor(testMatrix(8, 8, 17))
	if len(p1) > 0 && len(p2) > 0 && &p1[0] == &p2[0] {
		t.Fatal("two live factorizations share a pivot buffer after double put")
	}
	qr1.Release()
	qr2.Release()
	PutPivot(&p1)
	PutPivot(&p2)
}

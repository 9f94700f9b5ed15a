package lapack

import (
	"math"
	"testing"

	"questgo/internal/mat"
	"questgo/internal/rng"
)

// FuzzQRReconstruct factors fuzzer-shaped random matrices with QRFactor and
// requires Q*R to reproduce the input. This walks the panel/trailing-update
// boundaries (block-size straddles, tall-skinny, single-column) and the
// unblocked/blocked crossover far more densely than the fixed-size unit
// tests.
func FuzzQRReconstruct(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint64(1))
	f.Add(uint8(13), uint8(7), uint64(2))
	f.Add(uint8(33), uint8(32), uint64(3))
	f.Add(uint8(65), uint8(64), uint64(4))
	f.Add(uint8(80), uint8(3), uint64(5))
	// Square 33, 36 and 65: one column past a panel, the 6x6 lattice, one
	// past two panels — where FormQ's last panel is a sliver.
	f.Add(uint8(32), uint8(32), uint64(6))
	f.Add(uint8(35), uint8(35), uint64(7))
	f.Add(uint8(64), uint8(64), uint64(8))
	// Either side of qrSmall, where QRFactor and FormQ switch between the
	// unblocked and the blocked path: square, and tall over a short k.
	f.Add(uint8(qrSmall-1), uint8(qrSmall-1), uint64(9))
	f.Add(uint8(qrSmall), uint8(qrSmall), uint64(10))
	f.Add(uint8(qrSmall+7), uint8(qrSmall-1), uint64(11))
	f.Add(uint8(qrSmall+15), uint8(qrSmall+15), uint64(12))
	f.Fuzz(func(t *testing.T, m8, n8 uint8, seed uint64) {
		m := int(m8%(qrSmall+32)) + 1
		n := int(n8%(qrSmall+32)) + 1
		if n > m {
			m, n = n, m // QRFactor expects m >= n
		}
		r := rng.New(seed)
		orig := randomDense(r, m, n)
		qr := QRFactor(orig.Clone())
		rr := qr.R()
		// Reconstruct: embed R into an m x n block and apply Q.
		qrm := mat.New(m, n)
		for j := 0; j < n; j++ {
			copy(qrm.Col(j)[:rr.Rows], rr.Col(j))
		}
		qr.MulQ(false, qrm)
		tol := 1e-12 * float64(m)
		if !qrm.EqualApprox(orig, tol) {
			t.Fatalf("m=%d n=%d seed=%d: Q*R does not reproduce A (rel diff %.3e, tol %.3e)",
				m, n, seed, mat.RelDiff(qrm, orig), tol)
		}
		// The explicit Q must be the operator MulQ applies.
		q := mat.New(m, m)
		qr.FormQ(q)
		qi := mat.Identity(m)
		qr.MulQ(false, qi)
		if !q.EqualApprox(qi, tol) {
			t.Fatalf("m=%d n=%d seed=%d: FormQ differs from MulQ(false, I) (rel diff %.3e, tol %.3e)",
				m, n, seed, mat.RelDiff(q, qi), tol)
		}
	})
}

// FuzzGetrf factors fuzzer-shaped random square matrices with the
// blocked, partially pivoted LU and requires the pivoted product L*U to
// reproduce the input. Random [-1,1) matrices keep the pivot growth
// factor small, so a tight relative tolerance holds; the rare
// ill-conditioned draw is skipped rather than loosening the bound.
func FuzzGetrf(f *testing.F) {
	f.Add(uint8(1), uint64(1))
	f.Add(uint8(31), uint64(2))
	f.Add(uint8(32), uint64(3))
	f.Add(uint8(33), uint64(4))
	f.Add(uint8(77), uint64(5))
	f.Fuzz(func(t *testing.T, n8 uint8, seed uint64) {
		n := int(n8%80) + 1
		r := rng.New(seed)
		orig := randomDense(r, n, n)
		lu, err := LUFactor(orig.Clone())
		if err != nil {
			t.Skip("singular draw")
		}
		// Reconstruct P^T L U: form L*U from the packed factors, then
		// undo the recorded row interchanges in reverse order.
		prod := mat.New(n, n)
		for j := 0; j < n; j++ {
			col := prod.Col(j)
			for i := 0; i < n; i++ {
				kmax := i
				if j < i {
					kmax = j
				}
				s := 0.0
				for k := 0; k < kmax; k++ {
					s += lu.A.At(i, k) * lu.A.At(k, j)
				}
				if i <= j { // unit diagonal of L contributes U(i,j)
					s += lu.A.At(i, j)
				} else {
					s += lu.A.At(i, j) * lu.A.At(j, j)
				}
				col[i] = s
			}
		}
		for i := n - 1; i >= 0; i-- {
			if p := lu.Piv[i]; p != i {
				for j := 0; j < n; j++ {
					prod.Data[i+j*prod.Stride], prod.Data[p+j*prod.Stride] =
						prod.Data[p+j*prod.Stride], prod.Data[i+j*prod.Stride]
				}
			}
		}
		// Condition guard: a nearly singular draw amplifies the residual
		// legitimately. Estimate via the U diagonal.
		minPivot := math.Inf(1)
		for i := 0; i < n; i++ {
			if p := math.Abs(lu.A.At(i, i)); p < minPivot {
				minPivot = p
			}
		}
		if minPivot < 1e-8 {
			t.Skip("ill-conditioned draw")
		}
		tol := 1e-11 * float64(n)
		if !prod.EqualApprox(orig, tol) {
			t.Fatalf("n=%d seed=%d: P^T L U does not reproduce A (rel diff %.3e, tol %.3e)",
				n, seed, mat.RelDiff(prod, orig), tol)
		}
	})
}

// FuzzQRPBlockedVsLevel2 drives the blocked, level-3 pivoted QR and the
// retained level-2 reference over fuzzer-shaped matrices, including graded
// and tied column norms. The two downdate schemes round differently, so
// the pivot sequences are allowed to diverge — but when they agree the |R|
// diagonals must match, and each path must always satisfy its own
// reconstruction A·P = Q·R to near machine precision.
func FuzzQRPBlockedVsLevel2(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint64(1), uint8(0))
	f.Add(uint8(33), uint8(32), uint64(2), uint8(3))
	f.Add(uint8(64), uint8(64), uint64(3), uint8(0))
	f.Add(uint8(70), uint8(40), uint64(4), uint8(9))
	f.Add(uint8(40), uint8(70), uint64(5), uint8(1))
	f.Fuzz(func(t *testing.T, m8, n8 uint8, seed uint64, shape uint8) {
		m := int(m8%80) + 1
		n := int(n8%80) + 1
		r := rng.New(seed)
		orig := randomDense(r, m, n)
		switch shape % 4 {
		case 1: // graded columns, the stratified-matrix profile
			for j := 0; j < n; j++ {
				s := math.Pow(10, float64(-j)/8)
				col := orig.Col(j)
				for i := range col {
					col[i] *= s
				}
			}
		case 2: // duplicated columns: exact norm ties
			for j := 1; j < n; j += 2 {
				copy(orig.Col(j), orig.Col(j-1))
			}
		case 3: // a zero column block: rank deficiency
			for j := n / 2; j < n; j++ {
				col := orig.Col(j)
				for i := range col {
					col[i] = 0
				}
			}
		}
		check := func(name string, qr *QR, jpvt []int) *mat.Dense {
			rr := qr.R()
			qrm := mat.New(m, n)
			for j := 0; j < n; j++ {
				copy(qrm.Col(j)[:rr.Rows], rr.Col(j))
			}
			qr.MulQ(false, qrm)
			ap := mat.New(m, n)
			for j := 0; j < n; j++ {
				copy(ap.Col(j), orig.Col(jpvt[j]))
			}
			tol := 1e-12 * float64(m)
			if !qrm.EqualApprox(ap, tol) {
				t.Fatalf("m=%d n=%d seed=%d shape=%d: %s Q*R != A*P (rel diff %.3e, tol %.3e)",
					m, n, seed, shape%4, name, mat.RelDiff(qrm, ap), tol)
			}
			return rr
		}
		ab := orig.Clone()
		qrB, jpvtB := QRPFactor(ab)
		al := orig.Clone()
		qrL, jpvtL := QRPFactorLevel2(al)
		rb := check("blocked", qrB, jpvtB)
		rl := check("level-2", qrL, jpvtL)
		same := len(jpvtB) == len(jpvtL)
		for i := 0; same && i < len(jpvtB); i++ {
			same = jpvtB[i] == jpvtL[i]
		}
		if same {
			k := m
			if n < k {
				k = n
			}
			for i := 0; i < k; i++ {
				db, dl := math.Abs(rb.At(i, i)), math.Abs(rl.At(i, i))
				if math.Abs(db-dl) > 1e-12*float64(m)*(1+dl) {
					t.Fatalf("m=%d n=%d seed=%d shape=%d: same pivots but R diagonal %d differs (%g vs %g)",
						m, n, seed, shape%4, i, db, dl)
				}
			}
		}
		qrB.Release()
		qrL.Release()
		PutPivot(&jpvtB)
		PutPivot(&jpvtL)
	})
}

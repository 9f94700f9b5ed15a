package lapack

import (
	"math"
	"testing"
	"time"

	"questgo/internal/blas"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

// qrpResidual returns the relative difference between A·P (the columns of
// orig gathered in jpvt order) and the factorization's Q·R.
func qrpResidual(orig *mat.Dense, qr *QR, jpvt []int) float64 {
	m, n := orig.Rows, orig.Cols
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
	return mat.RelDiff(qrm, ap)
}

func samePivots(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkBlockedVsLevel2 factors orig with both QRP paths and requires either
// an identical pivot sequence with matching |R| diagonals, or — when
// rounding in the two downdate schemes legitimately picks different pivots —
// a <= tol reconstruction A·P = Q·R from each path for its own permutation.
func checkBlockedVsLevel2(t *testing.T, orig *mat.Dense, tol float64) {
	t.Helper()
	ab := orig.Clone()
	qrB, jpvtB := QRPFactor(ab)
	al := orig.Clone()
	qrL, jpvtL := QRPFactorLevel2(al)

	if resB := qrpResidual(orig, qrB, jpvtB); resB > tol {
		t.Fatalf("blocked QRP reconstruction residual %.3e > %.3e", resB, tol)
	}
	if resL := qrpResidual(orig, qrL, jpvtL); resL > tol {
		t.Fatalf("level-2 QRP reconstruction residual %.3e > %.3e", resL, tol)
	}
	if samePivots(jpvtB, jpvtL) {
		// Same permutation: the triangular factors must agree up to column
		// signs, so their diagonal magnitudes match to roundoff.
		rb, rl := qrB.R(), qrL.R()
		k := min(orig.Rows, orig.Cols)
		for i := 0; i < k; i++ {
			db, dl := math.Abs(rb.At(i, i)), math.Abs(rl.At(i, i))
			if math.Abs(db-dl) > tol*(1+dl) {
				t.Fatalf("R diagonal %d differs: blocked %g vs level-2 %g", i, db, dl)
			}
		}
	}
	qrB.Release()
	qrL.Release()
	PutPivot(&jpvtB)
	PutPivot(&jpvtL)
}

// TestQRPBlockedVsLevel2Graded drives both paths over strongly graded
// columns — the shape the stratified DQMC matrices have. The grading makes
// every pivot choice unambiguous, so the blocked path must reproduce the
// level-2 pivot sequence exactly.
func TestQRPBlockedVsLevel2Graded(t *testing.T) {
	r := rng.New(11)
	for _, n := range []int{16, 33, 64, 96, 129} {
		a := randomDense(r, n, n)
		// Keep the full grading range well above roundoff (~1e-8 at the
		// deepest column): below that the downdated norms are noise and the
		// pivot order is legitimately implementation-defined.
		for j := 0; j < n; j++ {
			blas.Scal(math.Pow(10, -8*float64(j)/float64(n-1)), a.Col(j))
		}
		// For the deepest tail of the largest size, the partial norms of the
		// last few columns decay to where the two schemes' rounding flips
		// near-ties, so strict pivot identity is only well-posed up to ~96.
		if n <= 96 {
			ab := a.Clone()
			qrB, jpvtB := QRPFactor(ab)
			al := a.Clone()
			qrL, jpvtL := QRPFactorLevel2(al)
			if !samePivots(jpvtB, jpvtL) {
				t.Fatalf("n=%d: graded pivots differ: blocked %v vs level-2 %v", n, jpvtB, jpvtL)
			}
			qrB.Release()
			qrL.Release()
			PutPivot(&jpvtB)
			PutPivot(&jpvtL)
		}
		checkBlockedVsLevel2(t, a, 1e-12)
	}
}

// TestQRPBlockedVsLevel2RankDeficient covers numerically rank-deficient
// inputs: a low-rank product plus tiny noise, where the trailing partial
// norms collapse toward zero and the cancellation safeguard must keep the
// downdated norms honest.
func TestQRPBlockedVsLevel2RankDeficient(t *testing.T) {
	r := rng.New(12)
	n, rank := 80, 11
	b := randomDense(r, n, rank)
	c := randomDense(r, rank, n)
	a := mat.New(n, n)
	blas.Gemm(false, false, 1, b, c, 0, a)
	for j := 0; j < n; j++ {
		col := a.Col(j)
		for i := range col {
			col[i] += 1e-14 * (2*r.Float64() - 1)
		}
	}
	checkBlockedVsLevel2(t, a, 1e-11)

	// Exactly rank deficient (no noise): trailing norms hit zero.
	blas.Gemm(false, false, 1, b, c, 0, a)
	checkBlockedVsLevel2(t, a, 1e-11)
}

// TestQRPBlockedVsLevel2DuplicateNorms covers exact column-norm ties
// (duplicated columns): both paths use strict > first-index-wins pivot
// selection, and whatever permutation each settles on must reconstruct.
func TestQRPBlockedVsLevel2DuplicateNorms(t *testing.T) {
	r := rng.New(13)
	n := 70
	a := randomDense(r, n, n)
	for j := 0; j < n; j += 2 {
		if j+1 < n {
			copy(a.Col(j+1), a.Col(j)) // pairs of identical columns
		}
	}
	checkBlockedVsLevel2(t, a, 1e-12)

	// All columns identical: every pivot choice is a tie.
	for j := 1; j < n; j++ {
		copy(a.Col(j), a.Col(0))
	}
	checkBlockedVsLevel2(t, a, 1e-12)
}

// TestQRPBlockedVsLevel2Rectangular covers m != n, including panel-width
// straddles and matrices living inside a view of larger storage.
func TestQRPBlockedVsLevel2Rectangular(t *testing.T) {
	r := rng.New(14)
	for _, dims := range [][2]int{{96, 40}, {70, 33}, {40, 96}, {33, 70}, {65, 64}} {
		m, n := dims[0], dims[1]
		checkBlockedVsLevel2(t, randomDense(r, m, n), 1e-12)
	}
	// Factor a view into larger backing storage: the column stride exceeds
	// the row count, so any accidental full-column access would corrupt the
	// frame (caught by the residual check on the view's contents).
	back := randomDense(r, 90, 90)
	view := back.View(7, 5, 61, 48)
	orig := view.Clone()
	qr, jpvt := QRPFactor(view)
	if res := qrpResidual(orig, qr, jpvt); res > 1e-12 {
		t.Fatalf("view: blocked QRP residual %.3e", res)
	}
	qr.Release()
	PutPivot(&jpvt)
}

// TestQRPBlockedNotSlowerThanLevel2 is the kernel regression gate at the
// DQMC sweet-spot size: the blocked level-3 QRP on the hot path must not
// fall behind the retained level-2 reference at N=768. On a 2-core AVX-512
// box it reads about 17 ms vs 61 ms, 26 ms vs 62 ms under -tags qmcdebug
// (each reflector update of the level-2 loop is one vector kernel call, so
// at N=512 the qmcdebug margin had fallen to 1.7x and a test on the other
// core could close it), so a noisy machine cannot trip the bound while a
// QRPFactor that stops spending its flops in GEMM does. The two
// factorizations alternate so a slow phase of the machine hits both.
func TestQRPBlockedNotSlowerThanLevel2(t *testing.T) {
	const n, reps = 768, 3
	a := testMatrix(n, n, 512)
	work := mat.New(n, n)
	time1 := func(factor func(*mat.Dense) (*QR, []int), best *time.Duration) {
		work.CopyFrom(a)
		start := time.Now()
		qr, jpvt := factor(work)
		if d := time.Since(start); d < *best {
			*best = d
		}
		qr.Release()
		PutPivot(&jpvt)
	}
	level2, blocked := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		time1(QRPFactorLevel2, &level2)
		time1(QRPFactor, &blocked)
	}
	if blocked > qrpGateSlack*level2 {
		t.Fatalf("blocked QRP %v slower than %dx the level-2 reference %v at N=%d", blocked, qrpGateSlack, level2, n)
	}
	t.Logf("N=%d: blocked %v, level-2 %v (%.1fx)", n, blocked, level2, float64(level2)/float64(blocked))
}

package lapack

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"questgo/internal/blas"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

func randomDense(r *rng.Rand, rows, cols int) *mat.Dense {
	m := mat.New(rows, cols)
	for j := 0; j < cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = 2*r.Float64() - 1
		}
	}
	return m
}

// orthoError returns ||Q^T Q - I||_max.
func orthoError(q *mat.Dense) float64 {
	n := q.Cols
	qtq := mat.New(n, n)
	blas.Gemm(true, false, 1, q, q, 0, qtq)
	id := mat.Identity(n)
	qtq.Add(-1, id)
	return qtq.MaxAbs()
}

func TestQRReconstruct(t *testing.T) {
	r := rng.New(1)
	for _, dims := range [][2]int{{8, 8}, {40, 40}, {65, 33}, {100, 100}, {33, 65}} {
		m, n := dims[0], dims[1]
		a := randomDense(r, m, n)
		orig := a.Clone()
		qr := QRFactor(a)
		rr := qr.R()
		// Reconstruct: Q * R.
		qrm := mat.New(m, n)
		full := mat.New(m, n)
		for j := 0; j < n; j++ {
			copy(full.Col(j)[:rr.Rows], rr.Col(j))
		}
		qrm.CopyFrom(full)
		qr.MulQ(false, qrm)
		if !qrm.EqualApprox(orig, 1e-12*float64(m)) {
			t.Fatalf("QR reconstruction failed for %dx%d", m, n)
		}
	}
}

func TestQRFormQOrthogonal(t *testing.T) {
	r := rng.New(2)
	for _, n := range []int{5, 31, 32, 33, 64, 97} {
		a := randomDense(r, n, n)
		qr := QRFactor(a)
		q := mat.New(n, n)
		qr.FormQ(q)
		if e := orthoError(q); e > 1e-12*float64(n) {
			t.Fatalf("n=%d: Q not orthogonal, err=%g", n, e)
		}
	}
}

func TestQRMulQTransposeInverse(t *testing.T) {
	r := rng.New(3)
	n := 50
	a := randomDense(r, n, n)
	qr := QRFactor(a)
	c := randomDense(r, n, 7)
	orig := c.Clone()
	qr.MulQ(false, c)
	qr.MulQ(true, c)
	if !c.EqualApprox(orig, 1e-11) {
		t.Fatal("Q^T Q C != C")
	}
}

func TestQRPReconstructAndGrading(t *testing.T) {
	r := rng.New(4)
	n := 60
	a := randomDense(r, n, n)
	// Impose a strong column grading like the stratified matrices have.
	for j := 0; j < n; j++ {
		blas.Scal(math.Pow(10, float64(-j)/6), a.Col(j))
	}
	orig := a.Clone()
	qr, jpvt := QRPFactor(a)
	rr := qr.R()
	// |R| diagonal must be non-increasing (the graded structure).
	for i := 1; i < n; i++ {
		if math.Abs(rr.At(i, i)) > math.Abs(rr.At(i-1, i-1))*(1+1e-12) {
			t.Fatalf("R diagonal not graded at %d: %g > %g", i, rr.At(i, i), rr.At(i-1, i-1))
		}
	}
	// Reconstruct Q*R and compare with A*P (columns gathered by jpvt).
	qrm := mat.New(n, n)
	for j := 0; j < n; j++ {
		copy(qrm.Col(j)[:rr.Rows], rr.Col(j))
	}
	qr.MulQ(false, qrm)
	ap := mat.New(n, n)
	for j := 0; j < n; j++ {
		copy(ap.Col(j), orig.Col(jpvt[j]))
	}
	if !qrm.EqualApprox(ap, 1e-12) {
		t.Fatal("QRP reconstruction failed")
	}
}

func TestQRPPermutationIsValid(t *testing.T) {
	r := rng.New(5)
	n := 37
	a := randomDense(r, n, n)
	_, jpvt := QRPFactor(a)
	seen := make([]bool, n)
	for _, p := range jpvt {
		if p < 0 || p >= n || seen[p] {
			t.Fatalf("invalid permutation %v", jpvt)
		}
		seen[p] = true
	}
}

func TestColumnNorms(t *testing.T) {
	r := rng.New(6)
	a := randomDense(r, 20, 9)
	norms := ColumnNorms(a, nil)
	for j := 0; j < 9; j++ {
		want := blas.Nrm2(a.Col(j))
		if math.Abs(norms[j]-want) > 1e-14 {
			t.Fatalf("ColumnNorms[%d] = %v want %v", j, norms[j], want)
		}
	}
}

func TestLUSolve(t *testing.T) {
	r := rng.New(7)
	for _, n := range []int{1, 5, 31, 32, 33, 100} {
		a := randomDense(r, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonally dominant
		}
		x := randomDense(r, n, 3)
		b := mat.New(n, 3)
		blas.Gemm(false, false, 1, a, x, 0, b)
		lu, err := LUFactor(a.Clone())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		lu.Solve(b)
		if !b.EqualApprox(x, 1e-9) {
			t.Fatalf("n=%d: LU solve inaccurate", n)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := mat.New(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1) // third row/col zero
	if _, err := LUFactor(a); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestLUDeterminant(t *testing.T) {
	// det of [[4,3],[6,3]] = 12-18 = -6.
	a := mat.New(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 3)
	a.Set(1, 0, 6)
	a.Set(1, 1, 3)
	lu, err := LUFactor(a)
	if err != nil {
		t.Fatal(err)
	}
	logd, sign := lu.LogDet()
	if sign != -1 || math.Abs(math.Exp(logd)-6) > 1e-12 {
		t.Fatalf("LogDet = (%v, %v)", logd, sign)
	}
}

func TestLUInvert(t *testing.T) {
	r := rng.New(8)
	n := 40
	a := randomDense(r, n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	lu, err := LUFactor(a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	inv := mat.New(n, n)
	lu.Invert(inv)
	prod := mat.New(n, n)
	blas.Gemm(false, false, 1, a, inv, 0, prod)
	if !prod.EqualApprox(mat.Identity(n), 1e-9) {
		t.Fatal("A * A^{-1} != I")
	}
}

func TestSymEigDiagonal(t *testing.T) {
	d := mat.Diag([]float64{3, -1, 2})
	vals, vecs := SymEig(d)
	want := []float64{-1, 2, 3}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-13 {
			t.Fatalf("vals = %v", vals)
		}
	}
	if e := orthoError(vecs); e > 1e-13 {
		t.Fatalf("eigenvectors not orthogonal: %g", e)
	}
}

// TestSymEigOverflowEnds: the periodic 2x2 lattice's hopping matrix at
// t = 1e185 (entries -2t), a value Config.Validate accepts, overflows the
// QL iteration to NaN. SymEig must return (a non-finite spectrum) instead
// of iterating forever.
func TestSymEigOverflowEnds(t *testing.T) {
	a := mat.New(4, 4)
	for _, p := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}} {
		a.Set(p[0], p[1], -2e185)
		a.Set(p[1], p[0], -2e185)
	}
	done := make(chan []float64)
	go func() {
		vals, _ := SymEig(a)
		done <- vals
	}()
	select {
	case vals := <-done:
		t.Logf("spectrum %v", vals)
	case <-time.After(10 * time.Second):
		t.Fatal("SymEig did not return within 10 s")
	}
}

func TestSymEigReconstruct(t *testing.T) {
	r := rng.New(9)
	for _, n := range []int{2, 5, 16, 33, 64} {
		a := randomDense(r, n, n)
		// Symmetrize.
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				v := (a.At(i, j) + a.At(j, i)) / 2
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, z := SymEig(a)
		// Ascending order.
		for i := 1; i < n; i++ {
			if vals[i] < vals[i-1] {
				t.Fatalf("eigenvalues not sorted: %v", vals)
			}
		}
		if e := orthoError(z); e > 1e-11*float64(n) {
			t.Fatalf("n=%d: Z not orthogonal (%g)", n, e)
		}
		// Reconstruct Z diag Z^T.
		zd := z.Clone()
		zd.ScaleCols(vals)
		rec := mat.New(n, n)
		blas.Gemm(false, true, 1, zd, z, 0, rec)
		if !rec.EqualApprox(a, 1e-11*float64(n)) {
			t.Fatalf("n=%d: eigendecomposition does not reconstruct A", n)
		}
	}
}

func TestSymExpInverse(t *testing.T) {
	r := rng.New(10)
	n := 24
	a := randomDense(r, n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			v := (a.At(i, j) + a.At(j, i)) / 2
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	pos, neg := SymExp(a, 0.3)
	prod := mat.New(n, n)
	blas.Gemm(false, false, 1, pos, neg, 0, prod)
	if !prod.EqualApprox(mat.Identity(n), 1e-11) {
		t.Fatal("exp(sA) * exp(-sA) != I")
	}
}

func TestSymExpZeroIsIdentity(t *testing.T) {
	a := mat.Diag([]float64{1, 2, 3})
	pos, _ := SymExp(a, 0)
	if !pos.EqualApprox(mat.Identity(3), 1e-14) {
		t.Fatal("exp(0) != I")
	}
}

// Property: LU solve residual is tiny for well-conditioned random systems.
func TestQuickLUResidual(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		n := 1 + r.Intn(30)
		a := randomDense(r, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		x := randomDense(r, n, 1)
		b := mat.New(n, 1)
		blas.Gemm(false, false, 1, a, x, 0, b)
		lu, err := LUFactor(a.Clone())
		if err != nil {
			return false
		}
		lu.Solve(b)
		return b.EqualApprox(x, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: QR of a random matrix has orthogonal Q and upper-triangular R
// with QR = A.
func TestQuickQRProperty(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) ^ 0x5555)
		m := 2 + r.Intn(40)
		n := 1 + r.Intn(m)
		a := randomDense(r, m, n)
		orig := a.Clone()
		qr := QRFactor(a)
		rr := qr.R()
		for j := 0; j < rr.Cols; j++ {
			for i := j + 1; i < rr.Rows; i++ {
				if rr.At(i, j) != 0 {
					return false
				}
			}
		}
		rec := mat.New(m, n)
		for j := 0; j < n; j++ {
			copy(rec.Col(j)[:rr.Rows], rr.Col(j))
		}
		qr.MulQ(false, rec)
		return rec.EqualApprox(orig, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: QRP and QR of the same matrix produce R factors with the same
// set of singular values (their column spans match); cheap proxy — the
// absolute products of diagonals (|det|) agree.
func TestQuickQRPDetInvariant(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) ^ 0x9999)
		n := 2 + r.Intn(20)
		a := randomDense(r, n, n)
		qr1 := QRFactor(a.Clone())
		qr2, _ := QRPFactor(a.Clone())
		ld1, ld2 := 0.0, 0.0
		r1, r2 := qr1.R(), qr2.R()
		for i := 0; i < n; i++ {
			ld1 += math.Log(math.Abs(r1.At(i, i)))
			ld2 += math.Log(math.Abs(r2.At(i, i)))
		}
		return math.Abs(ld1-ld2) < 1e-8*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

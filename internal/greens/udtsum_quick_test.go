package greens

import (
	"testing"
	"testing/quick"

	"questgo/internal/blas"
	"questgo/internal/lapack"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

// randomUDT builds a well-conditioned random UDT triple with controlled
// grading: Q from the QR of a random matrix, D log-spaced over the given
// decade span, T = unit-diagonal upper triangular plus small off-diagonals.
func randomUDT(r *rng.Rand, n int, decades float64) *UDT {
	a := mat.New(n, n)
	for j := 0; j < n; j++ {
		col := a.Col(j)
		for i := range col {
			col[i] = 2*r.Float64() - 1
		}
	}
	qr := lapack.QRFactor(a)
	q := mat.New(n, n)
	qr.FormQ(q)
	d := make([]float64, n)
	for i := range d {
		exp := decades * (0.5 - float64(i)/float64(n))
		d[i] = pow10(exp)
		if r.Uint64()&1 == 0 {
			d[i] = -d[i]
		}
	}
	t := mat.Identity(n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			t.Set(i, j, 0.5*(2*r.Float64()-1))
		}
	}
	return &UDT{Q: q, D: d, T: t}
}

func pow10(x float64) float64 {
	v := 1.0
	for x >= 1 {
		v *= 10
		x--
	}
	for x <= -1 {
		v /= 10
		x++
	}
	return v * (1 + 1.3*x) // rough fractional interpolation; exactness irrelevant
}

// Property: for mildly graded UDT pairs (sum well conditioned),
// invertFactoredSum agrees with the directly formed and LU-inverted
// ((U1 D1 T1)^{-1} + B)^{-1}.
func TestQuickFactoredSumConsistent(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) ^ 0xd00d)
		n := 2 + r.Intn(6)
		u1 := randomUDT(r, n, 1.5)
		b := randomUDT(r, n, 1.5)
		got := invertFactoredSum(u1, b)
		// Direct: invert U1 D1 T1, add B, invert.
		p1 := u1.Matrix()
		luP, err := lapack.LUFactor(p1.Clone())
		if err != nil {
			return true
		}
		a := mat.New(n, n)
		luP.Invert(a)
		a.Add(1, b.Matrix())
		lu2, err := lapack.LUFactor(a)
		if err != nil {
			return true
		}
		want := mat.New(n, n)
		lu2.Invert(want)
		return mat.RelDiff(got, want) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the UDT Matrix() reconstruction is linear in D: doubling D
// doubles the product.
func TestQuickUDTLinearInD(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) ^ 0xbead)
		n := 2 + r.Intn(8)
		u := randomUDT(r, n, 1)
		m1 := u.Matrix()
		for i := range u.D {
			u.D[i] *= 2
		}
		m2 := u.Matrix()
		m1.Scale(2)
		return m1.EqualApprox(m2, 1e-12*m2.MaxAbs()+1e-300)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// orthoCheck: randomUDT must produce orthogonal Q (sanity of the helper).
func TestRandomUDTHelperSane(t *testing.T) {
	r := rng.New(5)
	u := randomUDT(r, 10, 3)
	qtq := mat.New(10, 10)
	blas.Gemm(true, false, 1, u.Q, u.Q, 0, qtq)
	if !qtq.EqualApprox(mat.Identity(10), 1e-12) {
		t.Fatal("helper Q not orthogonal")
	}
	for i := 1; i < 10; i++ {
		if abs(u.D[i]) > abs(u.D[i-1]) {
			t.Fatal("helper D not descending")
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

package blas

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

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

// gemmNaive is the reference triple loop for op(A)*op(B).
func gemmNaive(transA, transB bool, alpha float64, a, b *mat.Dense, beta float64, c *mat.Dense) {
	opA := func(i, k int) float64 {
		if transA {
			return a.At(k, i)
		}
		return a.At(i, k)
	}
	opB := func(k, j int) float64 {
		if transB {
			return b.At(j, k)
		}
		return b.At(k, j)
	}
	kdim := a.Cols
	if transA {
		kdim = a.Rows
	}
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			s := 0.0
			for k := 0; k < kdim; k++ {
				s += opA(i, k) * opB(k, j)
			}
			c.Set(i, j, alpha*s+beta*c.At(i, j))
		}
	}
}

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{5, 4, 3, 2, 1}
	if got := Dot(x, y); got != 35 {
		t.Fatalf("Dot = %v", got)
	}
	if Dot(nil, nil) != 0 {
		t.Fatal("empty Dot should be 0")
	}
}

func TestAxpyScal(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	if y[0] != 3 || y[1] != 5 || y[2] != 7 {
		t.Fatalf("Axpy = %v", y)
	}
	Scal(0.5, y)
	if y[0] != 1.5 || y[2] != 3.5 {
		t.Fatalf("Scal = %v", y)
	}
}

func TestNrm2Robust(t *testing.T) {
	// Values that would overflow a naive sum of squares.
	x := []float64{3e180, 4e180}
	got := Nrm2(x)
	if math.IsInf(got, 0) || math.Abs(got-5e180)/5e180 > 1e-14 {
		t.Fatalf("Nrm2 = %v", got)
	}
	// And values that would underflow.
	x = []float64{3e-170, 4e-170}
	got = Nrm2(x)
	if got == 0 || math.Abs(got-5e-170)/5e-170 > 1e-14 {
		t.Fatalf("Nrm2 underflow = %v", got)
	}
	if Nrm2(nil) != 0 {
		t.Fatal("empty Nrm2")
	}
}

func TestIdamax(t *testing.T) {
	if Idamax([]float64{1, -5, 3}) != 1 {
		t.Fatal("Idamax wrong")
	}
	if Idamax(nil) != -1 {
		t.Fatal("Idamax empty")
	}
}

func TestSwap(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{3, 4}
	Swap(x, y)
	if x[0] != 3 || y[1] != 2 {
		t.Fatal("Swap wrong")
	}
}

func TestGemmAllTranspositions(t *testing.T) {
	r := rng.New(3)
	m, n, k := 7, 9, 5
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			var a, b *mat.Dense
			if ta {
				a = randomDense(r, k, m)
			} else {
				a = randomDense(r, m, k)
			}
			if tb {
				b = randomDense(r, n, k)
			} else {
				b = randomDense(r, k, n)
			}
			c := randomDense(r, m, n)
			want := c.Clone()
			Gemm(ta, tb, 1.3, a, b, 0.7, c)
			gemmNaive(ta, tb, 1.3, a, b, 0.7, want)
			if !c.EqualApprox(want, 1e-12) {
				t.Fatalf("Gemm mismatch for transA=%v transB=%v", ta, tb)
			}
		}
	}
}

func TestGemmLargeBlocked(t *testing.T) {
	// Exercise the k-block and m-block paths (dims larger than block sizes).
	r := rng.New(4)
	m, n, k := gemmMC+37, gemmNC+3, gemmKC+19
	a := randomDense(r, m, k)
	b := randomDense(r, k, n)
	c := mat.New(m, n)
	want := mat.New(m, n)
	Gemm(false, false, 1, a, b, 0, c)
	gemmNaive(false, false, 1, a, b, 0, want)
	if !c.EqualApprox(want, 1e-10) {
		t.Fatal("blocked Gemm mismatch on large matrix")
	}
}

func TestGemmAlphaZero(t *testing.T) {
	r := rng.New(5)
	a := randomDense(r, 3, 3)
	b := randomDense(r, 3, 3)
	c := randomDense(r, 3, 3)
	want := c.Clone()
	want.Scale(0.5)
	Gemm(false, false, 0, a, b, 0.5, c)
	if !c.EqualApprox(want, 1e-15) {
		t.Fatal("alpha=0 should only scale C")
	}
}

func TestGemmDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Gemm(false, false, 1, mat.New(2, 3), mat.New(4, 2), 0, mat.New(2, 2))
}

func TestTrsmLowerUnit(t *testing.T) {
	r := rng.New(6)
	n := 12
	l := randomDense(r, n, n)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
		for j := i + 1; j < n; j++ {
			l.Set(i, j, 0)
		}
	}
	x := randomDense(r, n, 4)
	b := mat.New(n, 4)
	Gemm(false, false, 1, l, x, 0, b)
	Trsm(false, false, true, 1, l, b)
	if !b.EqualApprox(x, 1e-10) {
		t.Fatal("lower unit Trsm failed")
	}
}

func TestTrsmUpper(t *testing.T) {
	r := rng.New(7)
	n := 12
	u := randomDense(r, n, n)
	for i := 0; i < n; i++ {
		u.Set(i, i, 2+r.Float64())
		for j := 0; j < i; j++ {
			u.Set(i, j, 0)
		}
	}
	x := randomDense(r, n, 3)
	b := mat.New(n, 3)
	Gemm(false, false, 1, u, x, 0, b)
	Trsm(true, false, false, 1, u, b)
	if !b.EqualApprox(x, 1e-10) {
		t.Fatal("upper Trsm failed")
	}
}

func TestTrsmTransposed(t *testing.T) {
	r := rng.New(8)
	n := 10
	u := randomDense(r, n, n)
	for i := 0; i < n; i++ {
		u.Set(i, i, 2+r.Float64())
		for j := 0; j < i; j++ {
			u.Set(i, j, 0)
		}
	}
	x := randomDense(r, n, 3)
	b := mat.New(n, 3)
	// B = U^T X; solve U^T X = B.
	Gemm(true, false, 1, u, x, 0, b)
	Trsm(true, true, false, 1, u, b)
	if !b.EqualApprox(x, 1e-10) {
		t.Fatal("transposed upper Trsm failed")
	}
	// Lower-unit transposed.
	l := randomDense(r, n, n)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
		for j := i + 1; j < n; j++ {
			l.Set(i, j, 0)
		}
	}
	b2 := mat.New(n, 3)
	Gemm(true, false, 1, l, x, 0, b2)
	Trsm(false, true, true, 1, l, b2)
	if !b2.EqualApprox(x, 1e-10) {
		t.Fatal("transposed lower unit Trsm failed")
	}
}

// TestTrsmBitwiseAcrossDispatch: a diagonal-block solve (and the alpha
// pre-scale) runs on the caller below gemmPoolMin and through the pool from
// there on; a right-hand-side column is solved by the same trsv either way,
// so the bits cannot depend on GOMAXPROCS. Sizes sit on both sides of the
// cutoff, and 100 has one diagonal block on each side.
func TestTrsmBitwiseAcrossDispatch(t *testing.T) {
	type operands struct {
		upper, trans bool
		alpha        float64
		t, b         *mat.Dense
	}
	r := rng.New(29)
	var cases []operands
	for _, sh := range [][2]int{{36, 36}, {63, 63}, {64, 64}, {100, 100}, {36, 300}} {
		n, cols := sh[0], sh[1]
		for _, upper := range []bool{false, true} {
			for _, trans := range []bool{false, true} {
				for _, alpha := range []float64{1, 0.5} {
					tm := randomDense(r, n, n)
					for i := 0; i < n; i++ {
						tm.Set(i, i, 2+r.Float64())
					}
					cases = append(cases, operands{upper, trans, alpha, tm, randomDense(r, n, cols)})
				}
			}
		}
	}
	solve := func(o operands) *mat.Dense {
		x := o.b.Clone()
		Trsm(o.upper, o.trans, !o.upper, o.alpha, o.t, x)
		return x
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	want := make([]*mat.Dense, len(cases))
	for i, o := range cases {
		want[i] = solve(o)
	}
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		for i, o := range cases {
			if !sameBits(solve(o), want[i]) {
				t.Errorf("GOMAXPROCS=%d: n=%d cols=%d upper=%v trans=%v alpha=%g differs from the serial bits",
					procs, o.t.Rows, o.b.Cols, o.upper, o.trans, o.alpha)
			}
		}
	}
}

// Property: Gemm agrees with the naive triple loop on random shapes.
func TestQuickGemmMatchesNaive(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		m, n, k := 1+r.Intn(24), 1+r.Intn(24), 1+r.Intn(24)
		a := randomDense(r, m, k)
		b := randomDense(r, k, n)
		c := randomDense(r, m, n)
		want := c.Clone()
		Gemm(false, false, 1, a, b, 1, c)
		gemmNaive(false, false, 1, a, b, 1, want)
		return c.EqualApprox(want, 1e-11)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A*B)*C == A*(B*C) within roundoff.
func TestQuickGemmAssociative(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) ^ 0xabcdef)
		n := 2 + r.Intn(16)
		a := randomDense(r, n, n)
		b := randomDense(r, n, n)
		c := randomDense(r, n, n)
		ab := mat.New(n, n)
		Gemm(false, false, 1, a, b, 0, ab)
		abc1 := mat.New(n, n)
		Gemm(false, false, 1, ab, c, 0, abc1)
		bc := mat.New(n, n)
		Gemm(false, false, 1, b, c, 0, bc)
		abc2 := mat.New(n, n)
		Gemm(false, false, 1, a, bc, 0, abc2)
		return abc1.EqualApprox(abc2, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

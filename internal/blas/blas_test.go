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
	Trsm(false, true, l, b)
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
	Trsm(true, false, u, b)
	if !b.EqualApprox(x, 1e-10) {
		t.Fatal("upper Trsm failed")
	}
}

// TestTrsmBitwiseAcrossDispatch: a diagonal-block solve runs on the caller
// below gemmPoolMin and through the pool from there on; a right-hand-side
// column is solved by the same code either way, so the bits cannot depend
// on GOMAXPROCS. Sizes sit on both sides of the cutoff, and 100 has one
// diagonal block on each side.
func TestTrsmBitwiseAcrossDispatch(t *testing.T) {
	type operands struct {
		upper bool
		t, b  *mat.Dense
	}
	r := rng.New(29)
	var cases []operands
	for _, sh := range [][2]int{{36, 36}, {63, 63}, {64, 64}, {100, 100}, {36, 300}} {
		n, cols := sh[0], sh[1]
		for _, upper := range []bool{false, true} {
			tm := randomDense(r, n, n)
			for i := 0; i < n; i++ {
				tm.Set(i, i, 2+r.Float64())
			}
			cases = append(cases, operands{upper, tm, randomDense(r, n, cols)})
		}
	}
	solve := func(o operands) *mat.Dense {
		x := o.b.Clone()
		Trsm(o.upper, !o.upper, o.t, x)
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
				t.Errorf("GOMAXPROCS=%d: n=%d cols=%d upper=%v differs from the serial bits",
					procs, o.t.Rows, o.b.Cols, o.upper)
			}
		}
	}
}

// trsvRef solves T x = x for one right-hand side the way Trsm's diagonal
// blocks were solved before the rank-1 kernel: an Axpy per pivot.
func trsvRef(upper, unit bool, t *mat.Dense, x []float64) {
	n := t.Rows
	div := func(k int) {
		if !unit {
			x[k] /= t.At(k, k)
		}
	}
	if !upper {
		for k := 0; k < n; k++ {
			div(k)
			Axpy(-x[k], t.Col(k)[k+1:], x[k+1:n])
		}
		return
	}
	for k := n - 1; k >= 0; k-- {
		div(k)
		Axpy(-x[k], t.Col(k)[:k], x[:k])
	}
}

// trsmRef is Trsm with every diagonal block solved column by column by
// trsvRef: the same blocks and Gemm updates.
func trsmRef(upper, unit bool, t, b *mat.Dense) {
	n := t.Rows
	solve := func(k0, k1 int) {
		for j := 0; j < b.Cols; j++ {
			trsvRef(upper, unit, t.View(k0, k0, k1-k0, k1-k0), b.Col(j)[k0:k1])
		}
	}
	if !upper {
		for k0 := 0; k0 < n; k0 += trsmBlock {
			k1 := min(k0+trsmBlock, n)
			solve(k0, k1)
			if k1 < n {
				Gemm(false, false, -1, t.View(k1, k0, n-k1, k1-k0), b.View(k0, 0, k1-k0, b.Cols), 1, b.View(k1, 0, n-k1, b.Cols))
			}
		}
		return
	}
	for k1 := n; k1 > 0; k1 -= trsmBlock {
		k0 := max(k1-trsmBlock, 0)
		solve(k0, k1)
		if k0 > 0 {
			Gemm(false, false, -1, t.View(0, k0, k0, k1-k0), b.View(k0, 0, k1-k0, b.Cols), 1, b.View(0, 0, k0, b.Cols))
		}
	}
}

// TestTrsmMatchesPerColumnTrsv: both Trsm variants, unit and not, against
// trsmRef bit for bit, at every N from 1 to 70 (one diagonal block, then a
// trsmBlock-row block and a sliver) and at 144 and 200 (three and four
// blocks, the last partial), with right-hand-side counts on both sides of
// the pool cutoff and ±0 entries in B whose updates must be skipped. The
// diagonal blocks run pivot by pivot over all columns through the rank-1
// kernel, which must not move a bit.
func TestTrsmMatchesPerColumnTrsv(t *testing.T) {
	sizes := []int{144, 200}
	for n := 1; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		r := rng.New(uint64(n) + 91)
		tm := randomDense(r, n, n)
		for i := 0; i < n; i++ {
			tm.Set(i, i, 2+r.Float64())
		}
		for _, cols := range []int{1, 5, n + 3} {
			b := randomDense(r, n, cols)
			for j := 0; j < cols; j += 2 {
				b.Col(j)[r.Intn(n)] = 0
				b.Col(j)[r.Intn(n)] = math.Copysign(0, -1)
			}
			for _, upper := range []bool{false, true} {
				for _, unit := range []bool{false, true} {
					got, want := b.Clone(), b.Clone()
					Trsm(upper, unit, tm, got)
					trsmRef(upper, unit, tm, want)
					if !sameBits(got, want) {
						t.Fatalf("n=%d cols=%d upper=%v unit=%v: Trsm differs from the per-column substitution",
							n, cols, upper, unit)
					}
				}
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

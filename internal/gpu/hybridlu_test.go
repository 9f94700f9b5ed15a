package gpu

import (
	"testing"

	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lapack"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

func TestHybridLUSolveMatchesCPU(t *testing.T) {
	r := rng.New(41)
	for _, n := range []int{8, 33, 64, 100} {
		a := randomDense(r, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		x := randomDense(r, n)
		b := mat.New(n, n)
		// B = A X.
		cpuLU, err := lapack.LUFactor(a.Clone())
		if err != nil {
			t.Fatal(err)
		}
		_ = cpuLU
		// Form B with a plain product.
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += a.At(i, k) * x.At(k, j)
				}
				b.Set(i, j, s)
			}
		}
		dev := NewDevice(TeslaC2050())
		st := dev.NewStream()
		da := dev.Malloc(n, n)
		st.SetMatrix(da, a)
		db := dev.Malloc(n, n)
		st.SetMatrix(db, b)
		lu := LUFactorHybrid(st, da)
		lu.Solve(db)
		got := mat.New(n, n)
		st.GetMatrix(got, db)
		if d := mat.RelDiff(got, x); d > 1e-9 {
			t.Fatalf("n=%d: hybrid LU solve rel diff %g", n, d)
		}
	}
}

func TestHybridLUNeedsPivoting(t *testing.T) {
	// A matrix with a zero leading element forces a row swap.
	a := mat.New(3, 3)
	a.Set(0, 1, 1)
	a.Set(1, 0, 2)
	a.Set(2, 2, 3)
	a.Set(0, 0, 0)
	x := mat.New(3, 1)
	x.Set(0, 0, 1)
	x.Set(1, 0, -2)
	x.Set(2, 0, 0.5)
	b := mat.New(3, 1)
	for i := 0; i < 3; i++ {
		s := 0.0
		for k := 0; k < 3; k++ {
			s += a.At(i, k) * x.At(k, 0)
		}
		b.Set(i, 0, s)
	}
	dev := NewDevice(TeslaC2050())
	st := dev.NewStream()
	da := dev.Malloc(3, 3)
	st.SetMatrix(da, a)
	db := dev.Malloc(3, 1)
	st.SetMatrix(db, b)
	lu := LUFactorHybrid(st, da)
	lu.Solve(db)
	got := mat.New(3, 1)
	st.GetMatrix(got, db)
	if d := mat.RelDiff(got, x); d > 1e-12 {
		t.Fatalf("pivoted hybrid LU wrong: %g", d)
	}
}

func TestGreenHybridMatchesCPU(t *testing.T) {
	p, f := testSetup(t, 4, 4, 6, 4, 20, 43)
	cs := greens.NewClusterSet(p, f, hubbard.Up, 5)
	chain := cs.Chain(0)
	gCPU := greens.Green(chain)
	dev := NewDevice(TeslaC2050())
	st := dev.NewStream()
	gHyb := GreenHybrid(st, chain)
	if d := mat.RelDiff(gHyb, gCPU); d > 1e-9 {
		t.Fatalf("hybrid full G differs from CPU: %g", d)
	}
	if dev.Flops() == 0 {
		t.Fatal("device did no work")
	}
}

func TestDeviceAxpyAndSwapRows(t *testing.T) {
	dev := NewDevice(TeslaC2050())
	st := dev.NewStream()
	r := rng.New(43)
	a := randomDense(r, 5)
	b := randomDense(r, 5)
	da := dev.Malloc(5, 5)
	db := dev.Malloc(5, 5)
	st.SetMatrix(da, a)
	st.SetMatrix(db, b)
	st.Axpy(2, da, db)
	want := b.Clone()
	want.Add(2, a)
	got := mat.New(5, 5)
	st.GetMatrix(got, db)
	if !got.EqualApprox(want, 1e-15) {
		t.Fatal("device Axpy wrong")
	}
	st.SwapRows(da, 0, 4, 1, 3)
	st.GetMatrix(got, da)
	if got.At(0, 1) != a.At(4, 1) || got.At(4, 2) != a.At(0, 2) || got.At(0, 0) != a.At(0, 0) {
		t.Fatal("device SwapRows wrong")
	}
}

package gpu

import (
	"math"
	"testing"

	"questgo/internal/blas"
	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lapack"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

func TestHybridQRMatchesCPU(t *testing.T) {
	r := rng.New(21)
	for _, n := range []int{16, 33, 64, 100} {
		a := randomDense(r, n)
		dev := NewDevice(TeslaC2050())
		st := dev.NewStream()
		da := dev.Malloc(n, n)
		st.SetMatrix(da, a)
		h := QRFactorHybrid(st, da)
		rHybrid := h.R()
		cpu := lapack.QRFactor(a.Clone())
		rCPU := cpu.R()
		if d := mat.RelDiff(rHybrid, rCPU); d > 1e-11 {
			t.Fatalf("n=%d: hybrid R differs from CPU R by %g", n, d)
		}
	}
}

func TestHybridQRFormQOrthogonalAndReconstructs(t *testing.T) {
	r := rng.New(23)
	n := 48
	a := randomDense(r, n)
	dev := NewDevice(TeslaC2050())
	st := dev.NewStream()
	da := dev.Malloc(n, n)
	st.SetMatrix(da, a)
	h := QRFactorHybrid(st, da)
	dq := dev.Malloc(n, n)
	h.FormQDevice(dq)
	q := mat.New(n, n)
	st.GetMatrix(q, dq)
	// Orthogonality.
	qtq := mat.New(n, n)
	blas.Gemm(true, false, 1, q, q, 0, qtq)
	if !qtq.EqualApprox(mat.Identity(n), 1e-11) {
		t.Fatal("hybrid Q not orthogonal")
	}
	// Q R = A.
	rr := h.R()
	rec := mat.New(n, n)
	blas.Gemm(false, false, 1, q, rr, 0, rec)
	if d := mat.RelDiff(rec, a); d > 1e-11 {
		t.Fatalf("hybrid QR does not reconstruct A: %g", d)
	}
}

func TestStratifyHybridMatchesCPU(t *testing.T) {
	p, f := testSetup(t, 4, 4, 6, 4, 20, 31)
	chain := make([]*mat.Dense, 0, 4)
	cs := greens.NewClusterSet(p, f, hubbard.Up, 5)
	for c := 0; c < cs.NC; c++ {
		chain = append(chain, cs.Cluster(c))
	}
	cpu := greens.StratifyPrePivot(chain)
	dev := NewDevice(TeslaC2050())
	st := dev.NewStream()
	hyb := StratifyHybrid(st, chain)
	for i := range cpu.D {
		if math.Abs(hyb.D[i]-cpu.D[i]) > 1e-9*math.Abs(cpu.D[i]) {
			t.Fatalf("D[%d]: hybrid %g vs cpu %g", i, hyb.D[i], cpu.D[i])
		}
	}
	gCPU := greens.GreenFromUDT(cpu)
	gHyb := greens.GreenFromUDT(hyb)
	if d := mat.RelDiff(gHyb, gCPU); d > 1e-10 {
		t.Fatalf("hybrid stratified G differs: %g", d)
	}
	if dev.Kernels() == 0 || dev.Transferred() == 0 {
		t.Fatal("hybrid stratification did not use the device")
	}
}

func TestDeviceExtKernels(t *testing.T) {
	dev := NewDevice(TeslaC2050())
	st := dev.NewStream()
	r := rng.New(25)
	a := randomDense(r, 6)
	da := dev.Malloc(6, 6)
	st.SetMatrix(da, a)

	// ScaleCols.
	v := []float64{1, 2, 3, 4, 5, 6}
	dv := dev.Malloc(6, 1)
	st.SetVector(dv, v)
	st.ScaleCols(da, dv)
	want := a.Clone()
	want.ScaleCols(v)
	got := mat.New(6, 6)
	st.GetMatrix(got, da)
	if !got.EqualApprox(want, 0) {
		t.Fatal("device ScaleCols wrong")
	}

	// ColumnNorms.
	norms := make([]float64, 6)
	st.ColumnNorms(da, norms)
	for j := 0; j < 6; j++ {
		w := blas.Nrm2(want.Col(j))
		if math.Abs(norms[j]-w) > 1e-13 {
			t.Fatalf("device column norm %d: %v want %v", j, norms[j], w)
		}
	}

	// PermuteCols.
	perm := []int{5, 4, 3, 2, 1, 0}
	st.PermuteCols(da, perm)
	st.GetMatrix(got, da)
	for j := 0; j < 6; j++ {
		for i := 0; i < 6; i++ {
			if got.At(i, j) != want.At(i, perm[j]) {
				t.Fatal("device PermuteCols wrong")
			}
		}
	}

	// Sub-matrix transfers.
	sub := mat.New(2, 3)
	st.GetSub(sub, da, 1, 2)
	if sub.At(0, 0) != got.At(1, 2) {
		t.Fatal("GetSub wrong")
	}
	sub.Set(0, 0, 42)
	st.SetSub(da, 1, 2, sub)
	st.GetMatrix(got, da)
	if got.At(1, 2) != 42 {
		t.Fatal("SetSub wrong")
	}
}

func TestMatrixSubSharesStorage(t *testing.T) {
	dev := NewDevice(TeslaC2050())
	st := dev.NewStream()
	da := dev.Malloc(4, 4)
	sub := da.Sub(1, 1, 2, 2)
	if sub.Rows() != 2 || sub.Cols() != 2 {
		t.Fatal("Sub dims wrong")
	}
	host := mat.New(2, 2)
	host.Set(0, 0, 7)
	st.SetMatrix(sub, host)
	full := mat.New(4, 4)
	st.GetMatrix(full, da)
	if full.At(1, 1) != 7 {
		t.Fatal("Sub does not alias parent")
	}
}

package stats

import (
	"math"
	"testing"
)

func TestLinearFitExact(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 1 + 2x
	fit, err := LinearFit(x, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.A-1) > 1e-12 || math.Abs(fit.B-2) > 1e-12 {
		t.Fatalf("fit = %+v", fit)
	}
	if fit.Chi2 > 1e-20 {
		t.Fatalf("exact line should have zero chi2: %v", fit.Chi2)
	}
}

func TestLinearFitWeighted(t *testing.T) {
	// A point with a huge error bar should barely influence the fit.
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 100}
	sigma := []float64{0.1, 0.1, 0.1, 1000}
	fit, err := LinearFit(x, y, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.A-1) > 0.01 || math.Abs(fit.B-2) > 0.01 {
		t.Fatalf("weighted fit pulled by outlier: %+v", fit)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}, nil); err == nil {
		t.Fatal("single point should fail")
	}
	if _, err := LinearFit([]float64{1, 1}, []float64{1, 2}, nil); err == nil {
		t.Fatal("degenerate x should fail")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1, 2}, []float64{1, -1}); err == nil {
		t.Fatal("negative sigma should fail")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}, nil); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestTrotterExtrapolate(t *testing.T) {
	// Synthetic y = 0.120 + 0.5*dtau^2.
	dtaus := []float64{0.05, 0.1, 0.2}
	values := make([]float64, 3)
	errors := []float64{0.001, 0.001, 0.001}
	for i, d := range dtaus {
		values[i] = 0.120 + 0.5*d*d
	}
	y0, y0err, err := TrotterExtrapolate(dtaus, values, errors)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y0-0.120) > 1e-10 {
		t.Fatalf("Trotter limit = %v want 0.120", y0)
	}
	if y0err <= 0 {
		t.Fatal("error bar must be positive")
	}
}

func TestFiniteSizeExtrapolate(t *testing.T) {
	// Synthetic y = 0.3 + 1.2/L.
	ls := []int{4, 8, 16}
	values := make([]float64, 3)
	for i, l := range ls {
		values[i] = 0.3 + 1.2/float64(l)
	}
	yInf, _, err := FiniteSizeExtrapolate(ls, values, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(yInf-0.3) > 1e-10 {
		t.Fatalf("bulk limit = %v want 0.3", yInf)
	}
	if _, _, err := FiniteSizeExtrapolate([]int{0, 4}, []float64{1, 2}, nil); err == nil {
		t.Fatal("L = 0 should fail")
	}
}

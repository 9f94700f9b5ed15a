package stats

import (
	"math"
	"testing"
	"testing/quick"

	"questgo/internal/rng"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	// Unbiased variance of {1,2,3,4} = 5/3.
	if math.Abs(Variance(xs)-5.0/3) > 1e-14 {
		t.Fatalf("Variance = %v", Variance(xs))
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate cases wrong")
	}
}

func TestStdErr(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	want := math.Sqrt(5.0 / 3 / 4)
	if math.Abs(StdErr(xs)-want) > 1e-14 {
		t.Fatalf("StdErr = %v want %v", StdErr(xs), want)
	}
}

func TestRebin(t *testing.T) {
	xs := []float64{1, 3, 5, 7, 9}
	got := Rebin(xs, 2)
	if len(got) != 2 || got[0] != 2 || got[1] != 6 {
		t.Fatalf("Rebin = %v", got)
	}
	if len(Rebin(xs, 10)) != 0 {
		t.Fatal("oversized bin should give empty result")
	}
}

func TestBinnedErrCorrelatedData(t *testing.T) {
	// Strongly autocorrelated series: binned error must exceed naive.
	r := rng.New(1)
	n := 4096
	xs := make([]float64, n)
	v := 0.0
	for i := range xs {
		v = 0.95*v + r.NormFloat64()
		xs[i] = v
	}
	naive := StdErr(xs)
	binned := BinnedErr(xs, 64)
	if binned < 2*naive {
		t.Fatalf("binned error %v should be much larger than naive %v", binned, naive)
	}
}

func TestJackknifeMatchesMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	m, e := Jackknife(xs, Mean)
	if math.Abs(m-3.5) > 1e-13 {
		t.Fatalf("jackknife mean = %v", m)
	}
	if math.Abs(e-StdErr(xs)) > 1e-13 {
		t.Fatalf("jackknife err = %v, StdErr = %v", e, StdErr(xs))
	}
}

func TestJackknifeNonlinear(t *testing.T) {
	// Ratio estimator <x>/<x^2>: jackknife should run without blowing up
	// and land near the plain ratio for well-behaved data.
	r := rng.New(2)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 5 + r.NormFloat64()
	}
	f := func(v []float64) float64 {
		m := Mean(v)
		s := 0.0
		for _, x := range v {
			s += x * x
		}
		return m / (s / float64(len(v)))
	}
	m, e := Jackknife(xs, f)
	if e <= 0 || math.Abs(m-f(xs)) > 5*e+0.01 {
		t.Fatalf("jackknife ratio %v +- %v vs direct %v", m, e, f(xs))
	}
}

func TestSummaryQuartiles(t *testing.T) {
	s := Summary([]float64{5, 1, 3, 2, 4})
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("Summary = %+v", s)
	}
}

func TestSummarySingle(t *testing.T) {
	s := Summary([]float64{7})
	if s.Min != 7 || s.Q1 != 7 || s.Median != 7 || s.Q3 != 7 || s.Max != 7 {
		t.Fatalf("Summary = %+v", s)
	}
}

func TestSummaryDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summary(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Summary mutated its input")
	}
}

func TestVectorAccumulator(t *testing.T) {
	var a VectorAccumulator
	a.Push([]float64{1, 10})
	a.Push([]float64{3, 30})
	if len(a.samples) != 2 {
		t.Fatalf("%d samples, want 2", len(a.samples))
	}
	m := a.MeanVec()
	if m[0] != 2 || m[1] != 20 {
		t.Fatalf("MeanVec = %v", m)
	}
	e := a.ErrVec()
	if e[0] <= 0 || e[1] <= 0 {
		t.Fatalf("ErrVec = %v", e)
	}
}

func TestVectorAccumulatorCopies(t *testing.T) {
	var a VectorAccumulator
	v := []float64{1, 2}
	a.Push(v)
	v[0] = 99
	if a.MeanVec()[0] != 1 {
		t.Fatal("Push must copy its argument")
	}
}

// Property: quartiles are ordered min <= Q1 <= median <= Q3 <= max.
func TestQuickSummaryOrdered(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		s := Summary(xs)
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Mean of rebinned data equals mean of the kept prefix.
func TestQuickRebinPreservesMean(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) ^ 0x7777)
		n := 4 + r.Intn(100)
		bin := 1 + r.Intn(4)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()
		}
		kept := (n / bin) * bin
		if kept == 0 {
			return true
		}
		return math.Abs(Mean(Rebin(xs, bin))-Mean(xs[:kept])) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

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

package stats

import (
	"bytes"
	"encoding/gob"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"questgo/internal/rng"
)

// ar1 returns n samples of x_t = phi·x_{t-1} + ε_t with unit normal ε,
// started from its stationary distribution.
func ar1(seed uint64, phi float64, n int) []float64 {
	r := rng.New(seed)
	xs := make([]float64, n)
	x := r.NormFloat64() / math.Sqrt(1-phi*phi)
	for i := range xs {
		x = phi*x + r.NormFloat64()
		xs[i] = x
	}
	return xs
}

// unsigned pushes xs as scalar samples of sign 1.
func unsigned(xs []float64) *Accumulator {
	acc := NewAccumulator(1)
	for _, x := range xs {
		acc.Push([]float64{x}, 1)
	}
	return acc
}

// errOf is element i's error by the rule.
func errOf(acc *Accumulator, i int) float64 {
	_, errs := acc.Estimate()
	return errs[i]
}

func relDiff(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }

// TestAccumulatorAR1: on an AR(1) series with phi = 0.9 (τ_int =
// (1+φ)/(2(1−φ)) = 9.5) the chosen level's error is within 10% of the exact
// σ_x·√(2τ_int/n), where the naive error is √19 times too small.
func TestAccumulatorAR1(t *testing.T) {
	const phi, n = 0.9, 1 << 16
	tau := (1 + phi) / (2 * (1 - phi))
	want := math.Sqrt(1/(1-phi*phi)) * math.Sqrt(2*tau/n)
	for _, seed := range []uint64{1, 2, 3} {
		got := errOf(unsigned(ar1(seed, phi, n)), 0)
		t.Logf("seed %d: error %.5g, exact %.5g", seed, got, want)
		if relDiff(got, want) > 0.10 {
			t.Errorf("seed %d: error %.5g, want %.5g within 10%%", seed, got, want)
		}
	}
}

// TestAccumulatorLevelRule pins the rule's three cases: white noise stops at
// level 0, a series correlated over far more than a run never plateaus and
// takes the last level with 32 bins, and below 32 samples level 0 is all
// there is.
func TestAccumulatorLevelRule(t *testing.T) {
	for _, c := range []struct {
		phi  float64
		n, l int
	}{{0, 4096, 0}, {0.999, 4096, 7}, {0.9, minBins - 1, 0}} {
		if l := unsigned(ar1(8, c.phi, c.n)).level(0); l != c.l {
			t.Errorf("phi %v, %d samples: level %d, want %d", c.phi, c.n, l, c.l)
		}
	}
}

// TestBinnedErrCorrelatedData: on a strongly autocorrelated series the
// binned error must be much larger than the naive one.
func TestBinnedErrCorrelatedData(t *testing.T) {
	xs := ar1(1, 0.95, 4096)
	naive, binned := StdErr(xs), errOf(unsigned(xs), 0)
	if binned < 2*naive {
		t.Fatalf("binned error %v should be much larger than naive %v", binned, naive)
	}
}

// TestAccumulatorLevel0IsStdErr: with s ≡ 1, level 0's error is the naive
// standard error, and below minBins samples it is the error Err reports.
func TestAccumulatorLevel0IsStdErr(t *testing.T) {
	r := rng.New(4)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 3 + r.NormFloat64()
	}
	if got, want := unsigned(xs).errAt(0, 0), StdErr(xs); relDiff(got, want) > 1e-12 {
		t.Fatalf("level 0 error %v, StdErr %v", got, want)
	}
	few := xs[:minBins-1]
	if got, want := errOf(unsigned(few), 0), StdErr(few); relDiff(got, want) > 1e-12 {
		t.Fatalf("%d samples: error %v, StdErr %v", len(few), got, want)
	}
	// A series that never moves has no error, not a cancellation residue.
	flat := unsigned([]float64{1e6, 1e6, 1e6, 1e6})
	if e := errOf(flat, 0); e != 0 {
		t.Fatalf("constant series: error %v", e)
	}
}

// TestAccumulatorLevels: level l's error is the standard error of the
// means of consecutive bins of 2^l samples, the remainder dropped.
func TestAccumulatorLevels(t *testing.T) {
	xs := ar1(5, 0.5, 1000)
	acc := unsigned(xs)
	for l := 0; l < 6; l++ {
		size := 1 << l
		var bins []float64
		for b := 0; b+size <= len(xs); b += size {
			bins = append(bins, Mean(xs[b:b+size]))
		}
		if got, want := acc.errAt(l, 0), StdErr(bins); relDiff(got, want) > 1e-12 {
			t.Fatalf("level %d: error %v, binned StdErr %v", l, got, want)
		}
	}
}

// TestAccumulatorSignedRatioMatchesJackknife: with ±1 signs the delta-method
// error of Σa/Σs at a level agrees with a jackknife over the same bins.
func TestAccumulatorSignedRatioMatchesJackknife(t *testing.T) {
	r := rng.New(6)
	const n, l = 4096, 2
	acc := NewAccumulator(2)
	as, ss := make([][2]float64, n), make([]float64, n)
	for i := range ss {
		s := 1.0
		if r.Float64() < 0.2 {
			s = -1
		}
		o := 2 + r.NormFloat64()
		as[i] = [2]float64{o * s, (o*o + s) * s}
		ss[i] = s
		acc.Push(as[i][:], s)
	}
	size := 1 << l
	nb := n / size
	mean, _ := acc.Estimate()
	for e := 0; e < 2; e++ {
		A, B := make([]float64, nb), make([]float64, nb)
		var sa, sb float64
		for b := range A {
			for j := b * size; j < (b+1)*size; j++ {
				A[b] += as[j][e]
				B[b] += ss[j]
			}
			sa += A[b]
			sb += B[b]
		}
		loo := make([]float64, nb)
		for b := range loo {
			loo[b] = (sa - A[b]) / (sb - B[b])
		}
		jack := math.Sqrt(float64(nb-1) * Variance(loo) * float64(nb-1) / float64(nb))
		got := acc.errAt(l, e)
		t.Logf("element %d: delta-method %.6g, jackknife %.6g", e, got, jack)
		if relDiff(got, jack) > 0.02 {
			t.Errorf("element %d: delta-method error %v, jackknife %v", e, got, jack)
		}
		if got, want := mean[e], sa/sb; relDiff(got, want) > 1e-12 {
			t.Errorf("element %d: mean %v, want Σa/Σs %v", e, got, want)
		}
	}
}

// TestAccumulatorVector: elements are independent series; an element that
// is a multiple of another has the multiple of its mean and error.
func TestAccumulatorVector(t *testing.T) {
	acc := NewAccumulator(2)
	for _, x := range ar1(7, 0.3, 300) {
		acc.Push([]float64{x, 10 * x}, 1)
	}
	mean, errs := acc.Estimate()
	if relDiff(mean[1], 10*mean[0]) > 1e-12 || relDiff(errs[1], 10*errs[0]) > 1e-12 || errs[0] <= 0 {
		t.Fatalf("mean %v, errors %v", mean, errs)
	}
}

// TestAccumulatorDoesNotRetain: Push keeps moments, not its argument.
func TestAccumulatorDoesNotRetain(t *testing.T) {
	acc := NewAccumulator(2)
	v := []float64{1, 2}
	acc.Push(v, 1)
	v[0] = 99
	acc.Push([]float64{3, 4}, 1)
	if mean, _ := acc.Estimate(); mean[0] != 2 || mean[1] != 3 {
		t.Fatalf("means %v, want [2 3]", mean)
	}
}

// TestAccumulatorPushNoAllocs: between powers of two a push allocates
// nothing.
func TestAccumulatorPushNoAllocs(t *testing.T) {
	acc := NewAccumulator(8)
	v := make([]float64, 8)
	for i := 0; i < 1024; i++ {
		acc.Push(v, 1)
	}
	if n := testing.AllocsPerRun(100, func() { acc.Push(v, -1) }); n != 0 {
		t.Fatalf("Push allocates %v times", n)
	}
}

// Property: the mean is Σa/Σs over every sample, whatever the length and
// however the signs fall.
func TestQuickAccumulatorMean(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) ^ 0x7777)
		n := 1 + r.Intn(100)
		acc := NewAccumulator(1)
		var sa, ss float64
		for i := 0; i < n; i++ {
			s := 1.0
			if r.Float64() < 0.3 {
				s = -1
			}
			x := r.Float64() * s
			acc.Push([]float64{x}, s)
			sa += x
			ss += s
		}
		mean, _ := acc.Estimate()
		if ss == 0 {
			return mean[0] == 0
		}
		return mean[0] == sa/ss && acc.AvgSign() == ss/float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAccumulatorGobResume: an accumulator has the shape Check expects after
// every count of pushes, and one carried through encoding/gob (or a Clone)
// at any count continues bit for bit: the same estimate after the rest of
// the series as the accumulator that never stopped, with the original left
// untouched by the copy's pushes.
func TestAccumulatorGobResume(t *testing.T) {
	r := rng.New(9)
	const n, width = 100, 3
	series := make([][]float64, n)
	for i := range series {
		series[i] = []float64{r.NormFloat64(), 2 + r.NormFloat64(), 1e6 + r.Float64()}
	}
	whole := NewAccumulator(width)
	for _, a := range series {
		whole.Push(a, 1)
	}
	wantMean, wantErr := whole.Estimate()
	for cut := 0; cut < n; cut++ {
		acc := NewAccumulator(width)
		for _, a := range series[:cut] {
			acc.Push(a, 1)
		}
		if err := acc.Check(width, cut); err != nil {
			t.Fatalf("after %d pushes: %v", cut, err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(acc); err != nil {
			t.Fatal(err)
		}
		var back Accumulator
		if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
			t.Fatal(err)
		}
		if err := back.Check(width, cut); err != nil {
			t.Fatalf("decoded after %d pushes: %v", cut, err)
		}
		before, _ := acc.Estimate()
		for _, c := range []*Accumulator{&back, acc.Clone()} {
			for _, a := range series[cut:] {
				c.Push(a, 1)
			}
			mean, errs := c.Estimate()
			if !slices.Equal(mean, wantMean) || !slices.Equal(errs, wantErr) {
				t.Fatalf("resumed after %d pushes: %v ± %v, want %v ± %v", cut, mean, errs, wantMean, wantErr)
			}
		}
		if after, _ := acc.Estimate(); !slices.Equal(after, before) && cut > 0 {
			t.Fatalf("after %d pushes: pushing into a copy moved the original", cut)
		}
	}
}

// TestAccumulatorCheckRejects: a decoded accumulator whose count, level
// count or vector lengths disagree is refused.
func TestAccumulatorCheckRejects(t *testing.T) {
	fresh := func() *Accumulator {
		acc := NewAccumulator(2)
		for i := range 5 {
			acc.Push([]float64{float64(i), 1}, 1)
		}
		return acc
	}
	if err := fresh().Check(2, 5); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		bad            func(*Accumulator) *Accumulator
		width, samples int
	}{
		{"nil", func(*Accumulator) *Accumulator { return nil }, 2, 5},
		{"width", func(a *Accumulator) *Accumulator { return a }, 3, 5},
		{"samples", func(a *Accumulator) *Accumulator { return a }, 2, 4},
		{"count and levels", func(a *Accumulator) *Accumulator { a.N = 8; return a }, 2, 8},
		{"negative count", func(a *Accumulator) *Accumulator { a.N = -1; return a }, 2, -1},
		{"extra level", func(a *Accumulator) *Accumulator { a.Levels = append(a.Levels, newLevel(2)); return a }, 2, 5},
		{"short total", func(a *Accumulator) *Accumulator { a.TA = a.TA[:1]; return a }, 2, 5},
		{"short open bin", func(a *Accumulator) *Accumulator { a.Levels[2].Open = nil; return a }, 2, 5},
		{"long level moments", func(a *Accumulator) *Accumulator { a.Levels[0].SAA = append(a.Levels[0].SAA, 0); return a }, 2, 5},
	} {
		if tc.bad(fresh()).Check(tc.width, tc.samples) == nil {
			t.Errorf("%s: Check accepted it", tc.name)
		}
	}
}

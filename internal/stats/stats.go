// Package stats provides the Monte Carlo statistics used by the simulation
// driver and the benchmark harness: means with autocorrelation-aware binned
// error bars, jackknife resampling, and the box-and-whisker quartile
// summary of the paper's Figure 2.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdErr returns the naive standard error of the mean sqrt(var/n). For
// correlated Monte Carlo samples use BinnedErr instead.
func StdErr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return math.Sqrt(Variance(xs) / float64(len(xs)))
}

// Rebin averages consecutive samples into len(xs)/binSize bins, dropping a
// possible remainder. Binning absorbs the autocorrelation between
// successive sweeps so the bin means are approximately independent.
func Rebin(xs []float64, binSize int) []float64 {
	if binSize < 1 {
		binSize = 1
	}
	nb := len(xs) / binSize
	out := make([]float64, nb)
	for b := 0; b < nb; b++ {
		out[b] = Mean(xs[b*binSize : (b+1)*binSize])
	}
	return out
}

// BinnedErr estimates the standard error of the mean using bins of the
// given size.
func BinnedErr(xs []float64, binSize int) float64 {
	return StdErr(Rebin(xs, binSize))
}

// AutoBinnedErr picks the bin size as sqrt(n) (a standard robust default)
// and returns the binned error.
func AutoBinnedErr(xs []float64) float64 {
	if len(xs) < 4 {
		return StdErr(xs)
	}
	return BinnedErr(xs, int(math.Sqrt(float64(len(xs)))))
}

// Jackknife returns the jackknife estimate of the mean and standard error
// of f applied to leave-one-out samples; with f = Mean it reproduces the
// plain mean and error, but it also propagates through nonlinear
// combinations (ratios of signed averages, etc.).
func Jackknife(xs []float64, f func([]float64) float64) (mean, err float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return f(xs), 0
	}
	full := f(xs)
	loo := make([]float64, n)
	buf := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		buf = buf[:0]
		buf = append(buf, xs[:i]...)
		buf = append(buf, xs[i+1:]...)
		loo[i] = f(buf)
	}
	m := Mean(loo)
	var s float64
	for _, v := range loo {
		d := v - m
		s += d * d
	}
	err = math.Sqrt(float64(n-1) / float64(n) * s)
	// Bias-corrected estimate.
	mean = float64(n)*full - float64(n-1)*m
	return mean, err
}

// FiveNum is the five-number summary behind a box-and-whisker plot.
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
}

// Summary computes the five-number summary of xs (which is not modified).
// It panics on an empty slice.
func Summary(xs []float64) FiveNum {
	if len(xs) == 0 {
		panic("stats: Summary of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return FiveNum{
		Min:    s[0],
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Q3:     quantileSorted(s, 0.75),
		Max:    s[len(s)-1],
	}
}

// quantileSorted linearly interpolates the q-quantile of sorted data.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// VectorAccumulator accumulates vector-valued samples (e.g. C_zz(r) maps or
// <n_k> arrays, one per sweep) and reports element-wise means and errors.
type VectorAccumulator struct {
	n       int
	samples [][]float64
}

// Push records one sample; the slice is copied.
func (a *VectorAccumulator) Push(v []float64) {
	if a.n == 0 {
		a.n = len(v)
	}
	if len(v) != a.n {
		panic("stats: inconsistent sample length")
	}
	a.samples = append(a.samples, append([]float64(nil), v...))
}

// MeanVec returns the element-wise mean.
func (a *VectorAccumulator) MeanVec() []float64 {
	out := make([]float64, a.n)
	if len(a.samples) == 0 {
		return out
	}
	for _, s := range a.samples {
		for i, v := range s {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(a.samples))
	}
	return out
}

// ErrVec returns element-wise binned standard errors.
func (a *VectorAccumulator) ErrVec() []float64 {
	out := make([]float64, a.n)
	col := make([]float64, len(a.samples))
	for i := 0; i < a.n; i++ {
		for s, v := range a.samples {
			col[s] = v[i]
		}
		out[i] = AutoBinnedErr(col)
	}
	return out
}

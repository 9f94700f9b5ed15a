// Package stats provides the Monte Carlo statistics used by the simulation
// driver and the benchmark harness: the streaming log-binning Accumulator
// behind every error bar of a run (sign-weighted ratios, one sample per
// sweep, the bin level chosen by one fixed rule), plain means and standard
// errors, and the box-and-whisker quartile summary of the paper's Figure 2.
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

// StdErr returns the naive standard error of the mean sqrt(var/n) of
// independent samples. For correlated Monte Carlo samples use an
// Accumulator.
func StdErr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return math.Sqrt(Variance(xs) / float64(len(xs)))
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

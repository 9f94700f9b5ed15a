package main

import (
	"fmt"
	"math"
	"sort"

	"questgo/internal/stats"
)

// minBeyond is how many samples must lie beyond a reported percentile: with
// fewer, the percentile is a statement about a handful of outliers.
const minBeyond = 10

// percentile picks the nearest-rank p-quantile (0 < p < 1) of sorted
// samples, and refuses when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	idx := int(math.Ceil(p*float64(n))) - 1
	if beyond := n - 1 - idx; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%.0f of %d samples has %d beyond it, need %d", p*100, n, max(n-1-idx, 0), minBeyond)
	}
	return sorted[idx], nil
}

// samplesFor is the smallest sample count percentile accepts for p.
func samplesFor(p float64) int {
	n := minBeyond
	for n-int(math.Ceil(p*float64(n))) < minBeyond {
		n++
	}
	return n
}

// median is the plain median of repeated whole measurements (round walls,
// set-up repetitions); per-operation latencies go through percentile.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Summary(xs).Median
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives. Fewer than two samples have no
// spread.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based rank, exclusive method
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / math.Abs(med)
}

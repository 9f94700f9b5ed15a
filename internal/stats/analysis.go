package stats

import (
	"fmt"
	"math"
)

// This file holds the post-processing analyses a DQMC study needs beyond
// raw error bars: weighted least squares and the two extrapolations
// the paper's methodology relies on — Trotter (dtau^2 -> 0) and finite
// size (the Figure 7 discussion extrapolates the long-distance spin
// correlation in 1/L to decide whether bulk order survives).

// FitResult holds a weighted linear least-squares fit y = A + B*x.
type FitResult struct {
	A, B       float64 // intercept and slope
	AErr, BErr float64 // standard errors
	Chi2       float64 // weighted residual sum of squares
	NDF        int     // degrees of freedom
}

// LinearFit performs a weighted least-squares line fit. Errors sigma may
// be nil (unit weights). At least two distinct x values are required.
func LinearFit(x, y, sigma []float64) (*FitResult, error) {
	n := len(x)
	if len(y) != n || (sigma != nil && len(sigma) != n) {
		return nil, fmt.Errorf("stats: LinearFit length mismatch")
	}
	if n < 2 {
		return nil, fmt.Errorf("stats: LinearFit needs at least 2 points")
	}
	var s, sx, sy, sxx, sxy float64
	for i := 0; i < n; i++ {
		w := 1.0
		if sigma != nil {
			if sigma[i] <= 0 {
				return nil, fmt.Errorf("stats: non-positive error at point %d", i)
			}
			w = 1 / (sigma[i] * sigma[i])
		}
		s += w
		sx += w * x[i]
		sy += w * y[i]
		sxx += w * x[i] * x[i]
		sxy += w * x[i] * y[i]
	}
	det := s*sxx - sx*sx
	if det == 0 {
		return nil, fmt.Errorf("stats: degenerate x values")
	}
	fit := &FitResult{
		A:   (sxx*sy - sx*sxy) / det,
		B:   (s*sxy - sx*sy) / det,
		NDF: n - 2,
	}
	fit.AErr = math.Sqrt(sxx / det)
	fit.BErr = math.Sqrt(s / det)
	for i := 0; i < n; i++ {
		w := 1.0
		if sigma != nil {
			w = 1 / (sigma[i] * sigma[i])
		}
		r := y[i] - fit.A - fit.B*x[i]
		fit.Chi2 += w * r * r
	}
	if sigma == nil && fit.NDF > 0 {
		// Scale parameter errors by the residual variance when no input
		// errors were given.
		scale := math.Sqrt(fit.Chi2 / float64(fit.NDF))
		fit.AErr *= scale
		fit.BErr *= scale
	}
	return fit, nil
}

// TrotterExtrapolate fits observable values measured at several Trotter
// steps to y = y0 + c*dtau^2 and returns the dtau -> 0 limit with its
// error — the standard way to remove the systematic discretization error.
func TrotterExtrapolate(dtaus, values, errors []float64) (y0, y0Err float64, err error) {
	x := make([]float64, len(dtaus))
	for i, d := range dtaus {
		x[i] = d * d
	}
	fit, ferr := LinearFit(x, values, errors)
	if ferr != nil {
		return 0, 0, ferr
	}
	return fit.A, fit.AErr, nil
}

// FiniteSizeExtrapolate fits values measured on lattices of linear size L
// to y = y_inf + c/L (the leading spin-wave correction for the staggered
// correlations the paper's Figure 7 discussion extrapolates) and returns
// the bulk limit.
func FiniteSizeExtrapolate(ls []int, values, errors []float64) (yInf, yInfErr float64, err error) {
	x := make([]float64, len(ls))
	for i, l := range ls {
		if l <= 0 {
			return 0, 0, fmt.Errorf("stats: non-positive lattice size")
		}
		x[i] = 1 / float64(l)
	}
	fit, ferr := LinearFit(x, values, errors)
	if ferr != nil {
		return 0, 0, ferr
	}
	return fit.A, fit.AErr, nil
}

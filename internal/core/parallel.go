package core

import (
	"fmt"
	"math"

	"questgo/internal/obs"
	"questgo/internal/stats"
)

// MergeResults combines independent runs of the same configuration —
// statistically independent Markov chains, the embarrassingly parallel axis
// of DQMC the paper's multicore platform also exploits between nodes — into
// one estimate: each merged value is the mean of the runs' values, and its
// error is the runs' own errors in quadrature over W, √(Σ e_w²)/W, or the
// standard error across the runs' means where that is larger, so chains
// that disagree beyond their errors are never hidden. Vector observables
// merge the same way element-wise, and the runs' metrics documents fold
// into one (obs.MergeMetrics).
func MergeResults(rs []*Results) (*Results, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("core: nothing to merge")
	}
	if len(rs) == 1 {
		return rs[0], nil
	}
	out := &Results{Config: rs[0].Config}
	docs := make([]*obs.Metrics, len(rs))
	for i, r := range rs {
		docs[i] = r.Metrics
	}
	out.Metrics = obs.MergeMetrics(docs)
	xs, es := make([]float64, len(rs)), make([]float64, len(rs))
	for j, f := range out.scalars() {
		for w, r := range rs {
			src := r.scalars()[j]
			xs[w], es[w] = *src[0], *src[1]
		}
		*f[0], *f[1] = merge(xs, es)
	}
	out.Potential = out.Config.U * out.DoubleOcc
	out.PotentialErr = math.Abs(out.Config.U) * out.DoubleOccErr
	for w, r := range rs {
		xs[w], es[w] = r.AvgSign, r.Acceptance
	}
	out.AvgSign, out.Acceptance = stats.Mean(xs), stats.Mean(es)
	for _, r := range rs {
		if r.MaxWrapDrift > out.MaxWrapDrift {
			out.MaxWrapDrift = r.MaxWrapDrift
		}
	}
	var err error
	if out.Nk, out.NkErr, err = mergeVecs(rs, func(r *Results) ([]float64, []float64) { return r.Nk, r.NkErr }); err != nil {
		return nil, err
	}
	if out.Czz, out.CzzErr, err = mergeVecs(rs, func(r *Results) ([]float64, []float64) { return r.Czz, r.CzzErr }); err != nil {
		return nil, err
	}
	if out.LayerDensity, _, err = mergeVecs(rs, func(r *Results) ([]float64, []float64) { return r.LayerDensity, nil }); err != nil {
		return nil, err
	}
	// Dynamic observables, when present on all walkers.
	if len(rs[0].DisplacedTaus) > 0 {
		out.DisplacedTaus = rs[0].DisplacedTaus
		for ti := range rs[0].GdTau {
			mean, errv, err := mergeVecs(rs, func(r *Results) ([]float64, []float64) { return r.GdTau[ti], r.GdTauErr[ti] })
			if err != nil {
				return nil, err
			}
			out.GdTau = append(out.GdTau, mean)
			out.GdTauErr = append(out.GdTauErr, errv)
		}
	}
	return out, nil
}

// merge is one merged value and error of the runs' values xs with errors
// es (see MergeResults).
func merge(xs, es []float64) (mean, err float64) {
	var q float64
	for _, e := range es {
		q += e * e
	}
	return stats.Mean(xs), max(math.Sqrt(q)/float64(len(xs)), stats.StdErr(xs))
}

// mergeVecs merges a vector observable element-wise; f returns a run's
// values and errors (nil errors count as 0).
func mergeVecs(rs []*Results, f func(*Results) ([]float64, []float64)) (mean, err []float64, e error) {
	v0, _ := f(rs[0])
	mean, err = make([]float64, len(v0)), make([]float64, len(v0))
	xs, es := make([]float64, len(rs)), make([]float64, len(rs))
	for i := range mean {
		for w, r := range rs {
			v, ev := f(r)
			if len(v) != len(mean) || ev != nil && len(ev) != len(mean) {
				return nil, nil, fmt.Errorf("core: walker results have inconsistent shapes")
			}
			xs[w] = v[i]
			if ev != nil {
				es[w] = ev[i]
			}
		}
		mean[i], err[i] = merge(xs, es)
	}
	return mean, err, nil
}

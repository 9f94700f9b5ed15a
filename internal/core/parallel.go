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
// one estimate. Error bars on merged scalars are the standard error across
// the runs' means (each run is an independent estimate), so they are nonzero
// only for two or more runs; vector observables merge the same way
// element-wise, and the runs' metrics documents fold into one
// (obs.MergeMetrics).
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
	pick := func(f func(*Results) float64) (mean, err float64) {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return stats.Mean(xs), stats.StdErr(xs)
	}
	out.Density, out.DensityErr = pick(func(r *Results) float64 { return r.Density })
	out.DoubleOcc, out.DoubleOccErr = pick(func(r *Results) float64 { return r.DoubleOcc })
	out.Kinetic, out.KineticErr = pick(func(r *Results) float64 { return r.Kinetic })
	out.LocalMoment, out.LocalMomentErr = pick(func(r *Results) float64 { return r.LocalMoment })
	out.SAF, out.SAFErr = pick(func(r *Results) float64 { return r.SAF })
	out.Potential = out.Config.U * out.DoubleOcc
	out.PotentialErr = math.Abs(out.Config.U) * out.DoubleOccErr
	out.Energy = out.Kinetic + out.Potential
	out.EnergyErr = out.KineticErr + out.PotentialErr
	out.AvgSign, _ = pick(func(r *Results) float64 { return r.AvgSign })
	out.Acceptance, _ = pick(func(r *Results) float64 { return r.Acceptance })
	for _, r := range rs {
		if r.MaxWrapDrift > out.MaxWrapDrift {
			out.MaxWrapDrift = r.MaxWrapDrift
		}
	}
	var err error
	if out.Nk, out.NkErr, err = mergeVecs(rs, func(r *Results) []float64 { return r.Nk }); err != nil {
		return nil, err
	}
	if out.Czz, out.CzzErr, err = mergeVecs(rs, func(r *Results) []float64 { return r.Czz }); err != nil {
		return nil, err
	}
	if out.LayerDensity, _, err = mergeVecs(rs, func(r *Results) []float64 { return r.LayerDensity }); err != nil {
		return nil, err
	}
	// Dynamic observables, when present on all walkers.
	if len(rs[0].DisplacedTaus) > 0 {
		out.DisplacedTaus = rs[0].DisplacedTaus
		for ti := range rs[0].GdTau {
			mean, errv, err := mergeVecs(rs, func(r *Results) []float64 { return r.GdTau[ti] })
			if err != nil {
				return nil, err
			}
			out.GdTau = append(out.GdTau, mean)
			out.GdTauErr = append(out.GdTauErr, errv)
		}
	}
	return out, nil
}

func mergeVecs(rs []*Results, f func(*Results) []float64) (mean, err []float64, e error) {
	n := len(f(rs[0]))
	mean = make([]float64, n)
	err = make([]float64, n)
	col := make([]float64, len(rs))
	for i := 0; i < n; i++ {
		for w, r := range rs {
			v := f(r)
			if len(v) != n {
				return nil, nil, fmt.Errorf("core: walker results have inconsistent shapes")
			}
			col[w] = v[i]
		}
		mean[i] = stats.Mean(col)
		err[i] = stats.StdErr(col)
	}
	return mean, err, nil
}

package core

import (
	"fmt"

	"questgo/internal/measure"
	"questgo/internal/obs"
	"questgo/internal/stats"
)

// ChiResult holds sampled imaginary-time spin susceptibilities.
type ChiResult struct {
	AF, AFErr           float64 // chi_zz(pi, pi)
	Uniform, UniformErr float64 // chi_zz(0, 0)
	Samples             int
}

// SampleSusceptibility runs `samples` additional sweeps, measuring the
// imaginary-time spin susceptibility chi_zz(q) on each resulting
// configuration (tau sampled every `every` slices; every <= 0 uses the
// cluster size). Call after Run so the chain is equilibrated. Every
// sampled tau stratifies the whole chain once per spin (one greens.Split),
// so this costs considerably more per sweep than the equal-time
// measurements. Each sweep is followed by the autopilot's step and the
// stability checks, as in Run; a chain that fails them, or a singular
// split, fails it with an *ErrUnstable (its Sweep counts Run's sweeps and
// the samples so far) and no result.
func (s *Simulation) SampleSusceptibility(samples, every int) (*ChiResult, error) {
	if samples < 1 {
		samples = 1
	}
	if every <= 0 {
		every = s.sweeper.ClusterK()
	}
	acc := stats.NewAccumulator(2) // chi_AF, chi_uniform
	for i := 0; i < samples; i++ {
		sweep := s.cfg.WarmSweeps + s.cfg.MeasSweeps + i + 1
		if err := s.step(sweep); err != nil {
			return nil, err
		}
		start := s.col.Begin()
		chi, err := measure.MeasureSusceptibility(s.lat, s.prop, s.field, every, s.sweeper.ClusterK())
		if err != nil {
			return nil, &ErrUnstable{Sweep: sweep, Drift: s.sweeper.MaxWrapDrift(), Sign: s.sweeper.Sign(),
				Reason: fmt.Sprintf("singular displaced Green's function: %v", err)}
		}
		sg := s.sweeper.Sign()
		acc.Push([]float64{sg * chi.ChiAF(), sg * chi.ChiUniform()}, sg)
		s.col.End(obs.PhaseMeasure, start)
	}
	res := &ChiResult{Samples: samples}
	mean, errs := acc.Estimate()
	res.AF, res.AFErr = mean[0], errs[0]
	res.Uniform, res.UniformErr = mean[1], errs[1]
	return res, nil
}

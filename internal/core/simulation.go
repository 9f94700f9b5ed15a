// Package core ties the DQMC pieces together into the full simulation the
// paper runs: warmup sweeps, measurement sweeps, sign-weighted observable
// accumulation with binned/jackknife errors, and the per-phase timing
// profile of Table I.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"questgo/internal/autopilot"
	"questgo/internal/gpu"
	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/measure"
	"questgo/internal/obs"
	"questgo/internal/parallel"
	"questgo/internal/rng"
	"questgo/internal/stats"
	"questgo/internal/update"
)

// Config specifies a DQMC simulation. The zero value is not runnable; use
// DefaultConfig as a starting point.
//
// The struct is its own wire document: the JSON tags are the fixed
// snake_case names of the QUEST-style input-file keys, every field is always
// emitted (no omitempty) in declaration order, and that encoding is what
// CanonicalJSON hashes — so a field added here reaches the wire format and
// the content hash by construction.
type Config struct {
	// Lattice geometry.
	Nx     int     `json:"nx"`
	Ny     int     `json:"ny"`
	Layers int     `json:"layers"` // 1 for the standard 2D model
	T      float64 `json:"t"`      // in-plane hopping (x direction, and y unless Ty set)
	Ty     float64 `json:"ty"`     // anisotropic y hopping (0 = same as T)
	TPrime float64 `json:"tprime"` // next-nearest-neighbor (diagonal) hopping t'
	Tperp  float64 `json:"tperp"`  // inter-layer hopping (ignored when Layers == 1)

	// Hamiltonian and temperature.
	U    float64 `json:"u"`
	Mu   float64 `json:"mu"`
	Beta float64 `json:"beta"`
	L    int     `json:"l"` // imaginary-time slices

	// Monte Carlo schedule. The paper's production runs use 1000 warmup
	// and 2000 measurement sweeps.
	WarmSweeps int `json:"warm"`
	MeasSweeps int `json:"meas"`

	// Algorithm knobs.
	ClusterK int  `json:"k"`        // matrix clustering size k (= wrapping count l); 10 in the paper
	Delay    int  `json:"delay"`    // delayed-update block size
	PrePivot bool `json:"prepivot"` // true: Algorithm 3 (the paper's method); false: Algorithm 2
	// SerialSpins disables the concurrent execution of the up/down spin
	// phases inside each sweep (reference path; identical arithmetic).
	SerialSpins bool `json:"serial_spins"`
	// MeasureBoundaries takes equal-time measurements at every cluster
	// boundary of a measurement sweep (L/k per sweep, averaged) instead of
	// once at its end — QUEST's variance-reduction practice. DefaultConfig
	// enables it.
	MeasureBoundaries bool `json:"measure_boundaries"`
	// MeasureDynamics additionally measures the time-displaced Green's
	// function G(d, tau) for tau = k, 2k, ..., L/2 slices once per
	// measurement sweep (QUEST's "dynamic" observables). Off by default —
	// each tau costs a full two-sided stratified evaluation per spin.
	MeasureDynamics bool `json:"measure_dynamics"`
	// StabilityCheckEvery, when positive, compares the amortized stack
	// Green's function against a full stratified rebuild every that many
	// cluster boundaries and records the residual in the run metrics. Each
	// check is one extra whole-chain stratification, run on an idle core
	// beside the sweep when there is one and inline otherwise, so it is
	// sampled; 0 disables it.
	StabilityCheckEvery int `json:"stability_check_every"`

	// Devices, when >= 1, runs the sweeper over that many simulated
	// accelerators (internal/gpu) instead of the host kernels: level-3 work
	// — wrapping, clustering, delayed-update flushes — executes through the
	// device cost model, sharded across the group when Devices > 1. The
	// physics is identical (the simulated device computes on the host); the
	// run metrics gain a per-device counter section. 0 keeps the CPU path.
	Devices int `json:"devices"`
	// UseGraphs captures the device wrap/cluster launch sequences into
	// command graphs and replays them for a single launch overhead per call
	// (requires Devices >= 1). Modeled-time only; never changes numbers.
	UseGraphs bool `json:"graphs"`

	// Autopilot enables the stability feedback controller
	// (internal/autopilot): the run's live telemetry — wrap drift, strat
	// residual, UDT condition — adapts ClusterK and StabilityCheckEvery
	// between sweeps instead of holding the hand-tuned values, never above
	// the configured ClusterK. Requires a single walker. When on and
	// StabilityCheckEvery is 0, the cadence starts at 4.
	Autopilot bool `json:"autopilot"`

	Seed uint64 `json:"seed"`
}

// DefaultConfig returns the paper's canonical small test: half-filled 2D
// Hubbard model, U = 4, beta = 2.
func DefaultConfig() Config {
	return Config{
		Nx: 4, Ny: 4, Layers: 1, T: 1,
		U: 4, Mu: 0, Beta: 2, L: 10,
		WarmSweeps: 50, MeasSweeps: 100,
		ClusterK: 10, Delay: 32, PrePivot: true,
		MeasureBoundaries: true,
		Seed:              1,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Nx < 1 || c.Ny < 1 || c.Layers < 1:
		return fmt.Errorf("core: invalid lattice %dx%dx%d", c.Nx, c.Ny, c.Layers)
	case c.L < 1:
		return fmt.Errorf("core: need at least 1 time slice")
	case c.Beta <= 0 || math.IsInf(c.Beta, 0) || math.IsNaN(c.Beta):
		return fmt.Errorf("core: beta must be positive and finite, got %v", c.Beta)
	case math.IsNaN(c.T) || math.IsInf(c.T, 0) ||
		math.IsNaN(c.U) || math.IsInf(c.U, 0) ||
		math.IsNaN(c.Mu) || math.IsInf(c.Mu, 0):
		return fmt.Errorf("core: t/U/mu must be finite (t=%v U=%v mu=%v)", c.T, c.U, c.Mu)
	case math.IsNaN(c.Ty) || math.IsInf(c.Ty, 0) ||
		math.IsNaN(c.TPrime) || math.IsInf(c.TPrime, 0) ||
		math.IsNaN(c.Tperp) || math.IsInf(c.Tperp, 0):
		return fmt.Errorf("core: ty/tprime/tperp must be finite (ty=%v tprime=%v tperp=%v)", c.Ty, c.TPrime, c.Tperp)
	case c.WarmSweeps < 0:
		return fmt.Errorf("core: warmup sweeps must be >= 0, got %d", c.WarmSweeps)
	case c.MeasSweeps < 1:
		return fmt.Errorf("core: need at least 1 measurement sweep")
	case c.ClusterK < 0:
		return fmt.Errorf("core: cluster size must be >= 0 (0 = default), got %d", c.ClusterK)
	case c.Delay < 0:
		return fmt.Errorf("core: delay block size must be >= 0 (0 = default), got %d", c.Delay)
	case c.StabilityCheckEvery < 0:
		return fmt.Errorf("core: stability check cadence must be >= 0 (0 = off), got %d", c.StabilityCheckEvery)
	case c.Devices < 0:
		return fmt.Errorf("core: device count must be >= 0 (0 = CPU sweeper), got %d", c.Devices)
	case c.UseGraphs && c.Devices < 1:
		return fmt.Errorf("core: command graphs need a device (set Devices >= 1)")
	}
	return nil
}

// Results aggregates the Monte Carlo estimates of a finished run. Scalar
// observables are sign-weighted ratios <O*s>/<s> with jackknife errors.
//
// Like Config, the struct is its own wire document: the JSON tags are the
// keys and the declaration order is the key order (see json.go).
type Results struct {
	Config Config `json:"config"`

	// Scalar observables (per site).
	Density        float64 `json:"density"`
	DensityErr     float64 `json:"density_err"`
	DoubleOcc      float64 `json:"double_occupancy"`
	DoubleOccErr   float64 `json:"double_occupancy_err"`
	Kinetic        float64 `json:"kinetic"`
	KineticErr     float64 `json:"kinetic_err"`
	Potential      float64 `json:"potential"`
	PotentialErr   float64 `json:"potential_err"`
	Energy         float64 `json:"energy"` // kinetic + potential
	EnergyErr      float64 `json:"energy_err"`
	LocalMoment    float64 `json:"local_moment"`
	LocalMomentErr float64 `json:"local_moment_err"`
	SAF            float64 `json:"s_af"` // antiferromagnetic structure factor S(pi,pi)
	SAFErr         float64 `json:"s_af_err"`

	AvgSign    float64 `json:"avg_sign"`
	Acceptance float64 `json:"acceptance"`
	// MaxWrapDrift is a numerical diagnostic: the largest relative difference
	// between a wrapped Green's function and its stratified recomputation.
	MaxWrapDrift float64 `json:"max_wrap_drift"`

	// Vector observables on the in-plane grids (x-fastest ordering).
	Nk           []float64 `json:"nk"` // momentum distribution <n_k>
	NkErr        []float64 `json:"nk_err"`
	Czz          []float64 `json:"czz"` // spin-spin correlation C_zz(dx, dy)
	CzzErr       []float64 `json:"czz_err"`
	LayerDensity []float64 `json:"layer_density,omitempty"` // per-plane densities

	// Dynamic observables (only when Config.MeasureDynamics): GdTau[i] is
	// the displacement map of G(d, tau) at tau = DisplacedTaus[i] slices.
	DisplacedTaus []int       `json:"displaced_taus,omitempty"`
	GdTau         [][]float64 `json:"gd_tau,omitempty"`
	GdTauErr      [][]float64 `json:"gd_tau_err,omitempty"`

	// Metrics is the run's exportable metrics document: per-phase wall-time
	// breakdown (the paper's Table I, see obs.Table), operation counts and
	// stability telemetry.
	Metrics *obs.Metrics `json:"metrics,omitempty"`
}

// Simulation is a configured DQMC run.
type Simulation struct {
	cfg     Config
	lat     *lattice.Lattice
	model   *hubbard.Model
	prop    *hubbard.Propagator
	field   *hubbard.Field
	rng     *rng.Rand
	sweeper *update.Sweeper
	group   *gpu.Group // nil unless cfg.Devices >= 1
	col     *obs.Collector
	pilot   *autopilot.Controller // nil unless cfg.Autopilot
}

// New builds the lattice, propagators, initial field and Markov chain for
// the configuration.
func New(cfg Config) (*Simulation, error) {
	return newWithCollector(cfg, obs.New())
}

// newWithCollector is New with a caller-supplied collector, so parallel
// walkers of one run can share a single collector (keeping the run-level
// op-counter deltas exact — the counters are process-global).
func newWithCollector(cfg Config, col *obs.Collector) (*Simulation, error) {
	sim, err := newBase(cfg, col)
	if err != nil {
		return nil, err
	}
	sim.startSweeper()
	return sim, nil
}

// newBase builds everything of a Simulation but its sweeper — geometry,
// model, propagator, the seeded RNG with the random initial field, and the
// autopilot controller — so New and Resume each construct the expensive
// part (clusters, stack, initial refresh, device group) exactly once, Resume
// after it has restored the checkpointed field.
func newBase(cfg Config, col *obs.Collector) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var lat *lattice.Lattice
	if cfg.Layers > 1 {
		lat = lattice.NewMultilayer(cfg.Nx, cfg.Ny, cfg.Layers, cfg.T, cfg.Tperp)
	} else {
		lat = lattice.NewSquare(cfg.Nx, cfg.Ny, cfg.T)
	}
	if cfg.TPrime != 0 {
		lat = lat.WithTPrime(cfg.TPrime)
	}
	if cfg.Ty != 0 {
		lat = lat.WithTy(cfg.Ty)
	}
	model, err := hubbard.NewModel(lat, cfg.U, cfg.Mu, cfg.Beta, cfg.L)
	if err != nil {
		return nil, err
	}
	prop := hubbard.NewPropagator(model)
	r := rng.New(cfg.Seed)
	field := hubbard.NewRandomField(cfg.L, model.N(), r)
	sim := &Simulation{cfg: cfg, lat: lat, model: model, prop: prop, field: field, rng: r, col: col}
	if cfg.Autopilot {
		// The controller wants a divisor of L where Config takes any k. A
		// zero cadence takes the controller's default: it is blind without
		// residual samples.
		sim.pilot = autopilot.New(cfg.L, update.SnapClusterK(cfg.L, cfg.ClusterK), cfg.StabilityCheckEvery)
	}
	return sim, nil
}

// startSweeper builds the Markov chain from the current field over the
// configured backend — the device group (sharded over cfg.Devices simulated
// accelerators) when cfg.Devices >= 1, the host kernels otherwise — at the
// controller's cluster size and check cadence, or the config's without one.
func (s *Simulation) startSweeper() {
	opts := update.Options{
		ClusterK:       s.cfg.ClusterK,
		Delay:          s.cfg.Delay,
		PrePivot:       s.cfg.PrePivot,
		SerialSpins:    s.cfg.SerialSpins,
		Obs:            s.col,
		StabilityEvery: s.cfg.StabilityCheckEvery,
	}
	if s.pilot != nil {
		opts.ClusterK, opts.StabilityEvery = s.pilot.K(), s.pilot.CheckEvery()
	}
	if s.cfg.Devices >= 1 {
		s.group = gpu.NewGroup(s.cfg.Devices)
		s.sweeper = update.NewSweeperOn(s.prop, s.field, s.rng, opts, gpu.NewBackend(s.group, s.cfg.UseGraphs))
	} else {
		s.sweeper = update.NewSweeper(s.prop, s.field, s.rng, opts)
	}
	if s.pilot != nil {
		// Attached only now: the construction's own refresh is not part of
		// any sweep's stability window.
		s.col.SetStabilityListener(s.pilot)
	}
}

// Model exposes the underlying Hubbard model (read-only use).
func (s *Simulation) Model() *hubbard.Model { return s.model }

// Lattice exposes the geometry.
func (s *Simulation) Lattice() *lattice.Lattice { return s.lat }

// Collector exposes the run's metrics collector.
func (s *Simulation) Collector() *obs.Collector { return s.col }

// ClusterK reports the sweeper's current cluster size — the configured value
// snapped to a divisor of L, further adapted by the autopilot when enabled.
func (s *Simulation) ClusterK() int { return s.sweeper.ClusterK() }

// autopilotStep closes the control loop after a sweep: the controller folds
// the sweep's stability window into a decision, and any change is applied to
// the sweeper before the next sweep begins (the Green's function at boundary
// 0 is independent of the clustering, so a resize is exact there).
func (s *Simulation) autopilotStep() {
	if s.pilot == nil {
		return
	}
	a := s.pilot.EndSweep()
	if !a.Changed {
		return
	}
	s.sweeper.SetClusterK(a.K)
	s.sweeper.SetStabilityEvery(a.CheckEvery)
}

// Progress reports a running simulation's position; see WithProgress. Each
// report carries a live snapshot of the phase-timing breakdown, so callers
// can stream "where is the time going" alongside "how far along are we".
type Progress struct {
	Stage string // "warmup" or "measure"
	Sweep int
	Total int

	// Phases is the per-phase time accumulated since the run started; Wall
	// is the elapsed wall time over the same window.
	Phases obs.PhaseDurations
	Wall   time.Duration
}

// Run executes the full schedule and returns the results.
func (s *Simulation) Run() *Results {
	res, _ := s.RunContext(context.Background(), nil) // an uncanceled run cannot fail
	return res
}

// report invokes the progress callback with a live phase snapshot.
func (s *Simulation) report(cb func(Progress), stage string, sweep, total int) {
	if cb == nil {
		return
	}
	cb(Progress{
		Stage: stage, Sweep: sweep, Total: total,
		Phases: s.col.PhaseDurations(),
		Wall:   s.col.Wall(),
	})
}

// RunContext executes the full schedule, stopping between sweeps when ctx is
// canceled. On cancellation it returns ctx.Err() with nil results; the
// simulation remains in a consistent state, so the caller can Checkpoint()
// it and resume later (cmd/dqmc -checkpoint does).
func (s *Simulation) RunContext(ctx context.Context, cb func(Progress)) (*Results, error) {
	// Re-baseline the collector so constructor work (cluster building, stack
	// setup — or a long gap between New and Run) is excluded from the run's
	// wall time and the phase breakdown stays an honest partition of it. The
	// device clocks re-baseline with it (allocations persist, so the memory
	// high-water mark still covers the whole session).
	s.col.Reset()
	if s.group != nil {
		s.group.Reset()
	}
	return s.runBody(ctx, cb)
}

// runBody is RunContext after the collector re-baseline; shared-collector
// walkers (Run with WithWalkers) enter here directly.
func (s *Simulation) runBody(ctx context.Context, cb func(Progress)) (*Results, error) {
	// A chain keeps its core busy for the whole run, so the pool must not
	// count that core as idle: see parallel.Enter.
	parallel.Enter()
	defer parallel.Leave()
	for w := 0; w < s.cfg.WarmSweeps; w++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.sweeper.Sweep()
		s.autopilotStep()
		s.report(cb, "warmup", w+1, s.cfg.WarmSweeps)
	}

	var (
		signs                               []float64
		density, docc, kinetic, moment, saf []float64
		nkAcc, czzAcc                       stats.VectorAccumulator
		layerAcc                            stats.VectorAccumulator
	)
	// Per-sweep collection: with MeasureBoundaries every cluster boundary
	// contributes one sample (L/k per sweep) and the sweep records their
	// average; otherwise a single measurement is taken after the sweep.
	var collected []*measure.EqualTime
	takeMeasurement := func() {
		start := s.col.Begin()
		sign := s.sweeper.Sign()
		collected = append(collected, measure.Measure(s.lat, s.sweeper.GreenUp(), s.sweeper.GreenDn(), sign))
		s.col.End(obs.PhaseMeasure, start)
	}
	if s.cfg.MeasureBoundaries {
		s.sweeper.SetBoundaryHook(takeMeasurement)
		defer s.sweeper.SetBoundaryHook(nil)
	}
	var dynAcc stats.VectorAccumulator
	var dynTaus []int
	for m := 0; m < s.cfg.MeasSweeps; m++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		collected = collected[:0]
		s.sweeper.Sweep()
		s.autopilotStep()
		if len(collected) == 0 {
			takeMeasurement()
		}
		if s.cfg.MeasureDynamics {
			dstart := s.col.Begin()
			k := s.sweeper.ClusterK()
			// Ensure at least one tau fits in (0, L/2].
			every := k
			if every > s.cfg.L/2 {
				every = s.cfg.L / 2
			}
			if every >= 1 {
				md := measure.MeasureDisplaced(s.lat, s.prop, s.field, every, s.cfg.L/2, k)
				if len(md.Taus) > 0 {
					dynTaus = md.Taus
					sg := s.sweeper.Sign()
					flat := make([]float64, 0, len(md.Taus)*len(md.GdTau[0]))
					for _, row := range md.GdTau {
						for _, v := range row {
							flat = append(flat, sg*v)
						}
					}
					dynAcc.Push(flat)
				}
			}
			s.col.End(obs.PhaseMeasure, dstart)
		}
		// Average the sweep's samples, sign weighted.
		inv := 1 / float64(len(collected))
		var sSign, sDen, sDocc, sKin, sMom, sSAF float64
		nk := make([]float64, len(collected[0].GFun))
		czz := make([]float64, len(collected[0].Czz))
		layers := make([]float64, len(collected[0].LayerDensity))
		for _, et := range collected {
			sg := et.Sign
			sSign += sg * inv
			sDen += sg * et.Density() * inv
			sDocc += sg * et.DoubleOcc * inv
			sKin += sg * et.Kinetic * inv
			sMom += sg * et.LocalMoment * inv
			sSAF += sg * et.AFStructureFactor() * inv
			etnk := et.MomentumDistribution()
			for i := range nk {
				nk[i] += sg * etnk[i] * inv
			}
			for i := range czz {
				czz[i] += sg * et.Czz[i] * inv
			}
			for i := range layers {
				layers[i] += et.LayerDensity[i] * inv
			}
		}
		signs = append(signs, sSign)
		density = append(density, sDen)
		docc = append(docc, sDocc)
		kinetic = append(kinetic, sKin)
		moment = append(moment, sMom)
		saf = append(saf, sSAF)
		nkAcc.Push(nk)
		czzAcc.Push(czz)
		layerAcc.Push(layers)
		s.report(cb, "measure", m+1, s.cfg.MeasSweeps)
	}

	// The final statistics (jackknife errors, vector averages) belong to the
	// measurement phase of the breakdown.
	fstart := s.col.Begin()
	res := &Results{
		Config:       s.cfg,
		AvgSign:      stats.Mean(signs),
		Acceptance:   s.sweeper.AcceptanceRate(),
		MaxWrapDrift: s.sweeper.MaxWrapDrift(),
	}
	res.Density, res.DensityErr = signedAverage(density, signs)
	res.DoubleOcc, res.DoubleOccErr = signedAverage(docc, signs)
	res.Kinetic, res.KineticErr = signedAverage(kinetic, signs)
	res.LocalMoment, res.LocalMomentErr = signedAverage(moment, signs)
	res.SAF, res.SAFErr = signedAverage(saf, signs)
	res.Potential = s.cfg.U * res.DoubleOcc
	res.PotentialErr = math.Abs(s.cfg.U) * res.DoubleOccErr
	res.Energy = res.Kinetic + res.Potential
	res.EnergyErr = res.KineticErr + res.PotentialErr

	avgSign := res.AvgSign
	res.Nk = scaleCopy(nkAcc.MeanVec(), 1/avgSign)
	res.NkErr = nkAcc.ErrVec()
	res.Czz = scaleCopy(czzAcc.MeanVec(), 1/avgSign)
	res.CzzErr = czzAcc.ErrVec()
	res.LayerDensity = layerAcc.MeanVec()
	if s.cfg.MeasureDynamics && len(dynTaus) > 0 {
		res.DisplacedTaus = dynTaus
		mean := scaleCopy(dynAcc.MeanVec(), 1/avgSign)
		errv := dynAcc.ErrVec()
		per := len(mean) / len(dynTaus)
		for i := range dynTaus {
			res.GdTau = append(res.GdTau, mean[i*per:(i+1)*per])
			res.GdTauErr = append(res.GdTauErr, errv[i*per:(i+1)*per])
		}
	}
	s.col.End(obs.PhaseMeasure, fstart)
	s.col.Finish()
	res.Metrics = s.col.Metrics()
	if s.pilot != nil {
		res.Metrics.Autopilot = s.pilot.MetricsDoc()
	}
	if s.group != nil {
		for i, d := range s.group.Devs {
			res.Metrics.Devices = append(res.Metrics.Devices, obs.DeviceMetrics{
				Device:           fmt.Sprintf("dev%d", i),
				ClockMS:          float64(d.Clock()) / float64(time.Millisecond),
				LaunchOverheadMS: float64(d.LaunchOverhead()) / float64(time.Millisecond),
				ModeledGFlops:    d.GFlopsRate(),
				Flops:            int64(d.Flops()),
				TransferredBytes: d.Transferred(),
				Kernels:          int64(d.Kernels()),
				MaxAllocBytes:    d.MaxAllocBytes(),
			})
		}
	}
	return res, nil
}

// signedAverage computes the sign-weighted ratio <O s>/<s> with a
// jackknife error that propagates the correlation between numerator and
// denominator.
func signedAverage(os, signs []float64) (mean, err float64) {
	n := len(os)
	if n == 0 {
		return 0, 0
	}
	idx := make([]float64, n)
	for i := range idx {
		idx[i] = float64(i)
	}
	f := func(sel []float64) float64 {
		var num, den float64
		for _, fi := range sel {
			i := int(fi)
			num += os[i]
			den += signs[i]
		}
		if den == 0 {
			return 0
		}
		return num / den
	}
	return stats.Jackknife(idx, f)
}

func scaleCopy(v []float64, s float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] * s
	}
	return out
}

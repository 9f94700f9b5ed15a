// Package core ties the DQMC pieces together into the full simulation the
// paper runs: warmup sweeps, measurement sweeps, sign-weighted observable
// accumulation into log-binning accumulators (stats.Accumulator, one error
// rule for every error bar), and the per-phase timing profile of Table I.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"questgo/internal/autopilot"
	"questgo/internal/gpu"
	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/mat"
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
	// UseGraphs launches each device wrap/cluster call as one command
	// graph, for a single launch overhead per call
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

// Results aggregates the Monte Carlo estimates of a finished run. Every
// observable, scalar or vector, is a sign-weighted ratio <O*s>/<s> with the
// log-binning error of stats.Accumulator; Energy has its own series.
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

// nScalars is the number of sign-weighted scalar observables (scalars).
const nScalars = 6

// scalars lists the sign-weighted scalar observables with their errors in
// the order a run accumulates them, ahead of n_k, C_zz and the layer
// densities; MergeResults merges the same list.
func (r *Results) scalars() [nScalars][2]*float64 {
	return [nScalars][2]*float64{{&r.Density, &r.DensityErr}, {&r.DoubleOcc, &r.DoubleOccErr},
		{&r.Kinetic, &r.KineticErr}, {&r.LocalMoment, &r.LocalMomentErr}, {&r.SAF, &r.SAFErr}, {&r.Energy, &r.EnergyErr}}
}

// measureDisplaced is the dynamic measurement a measurement sweep takes
// with Config.MeasureDynamics; tests swap it to reach the singular case.
var measureDisplaced = measure.MeasureDisplaced

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
	// The run in progress: its sweeps done, warm-up included, and its
	// measurement from the first measurement sweep on; 0 and nil between runs.
	sweeps int
	meas   *Measurement
}

// Measurement is a run's measurement so far: the equal-time accumulator,
// the G(d, tau) one (nil without Config.MeasureDynamics) and the spacing
// Every of its tau grid.
type Measurement struct {
	ET, Dyn *stats.Accumulator
	Every   int
}

// clone deep-copies m (nil for nil).
func (m *Measurement) clone() *Measurement {
	if m == nil {
		return nil
	}
	return &Measurement{ET: m.ET.Clone(), Dyn: m.Dyn.Clone(), Every: m.Every}
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

// step runs one sweep and what every sweep of the Simulation is followed
// by: the autopilot's decision over the sweep's stability window, applied
// before the next sweep begins (the Green's function at boundary 0 is
// independent of the clustering, so a resize is exact there), then the
// stability checks. sweep numbers the sweep for an *ErrUnstable.
func (s *Simulation) step(sweep int) error {
	s.sweeper.Sweep()
	if s.pilot != nil {
		if a := s.pilot.EndSweep(s.col.TakeWindow()); a.Changed {
			s.sweeper.SetClusterK(a.K)
			s.sweeper.SetStabilityEvery(a.CheckEvery)
		}
	}
	return s.checkStable(sweep)
}

// Progress reports a running simulation's position; see WithProgress. Each
// report carries a live snapshot of the phase-timing breakdown, so callers
// can stream "where is the time going" alongside "how far along are we".
type Progress struct {
	Stage string // "warmup" or "measure"
	Sweep int    // sweeps of the stage done, a resumed run's included
	Total int    // Config.WarmSweeps or Config.MeasSweeps

	// Phases is the per-phase time accumulated since the run started; Wall
	// is the elapsed wall time over the same window.
	Phases obs.PhaseDurations
	Wall   time.Duration
}

// Run executes the full schedule and returns the results. An uncanceled
// run fails only on an *ErrUnstable, which Run panics with; RunContext
// returns it.
func (s *Simulation) Run() *Results {
	res, err := s.RunContext(context.Background(), nil)
	if err != nil {
		panic(err)
	}
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

// RunContext executes the schedule from the simulation's place in it,
// stopping between sweeps when ctx is canceled. On cancellation it returns
// ctx.Err() with nil results and keeps its place and measurement: a later
// RunContext, or a Resume of its Checkpoint, yields the uninterrupted run's
// Results. A chain that fails the stability checks after a sweep returns an
// *ErrUnstable, also with nil results; its state is not worth a checkpoint.
func (s *Simulation) RunContext(ctx context.Context, cb func(Progress)) (*Results, error) {
	// Re-baseline the collector so constructor work (cluster building, stack
	// setup — or a long gap between New and Run) is excluded from the run's
	// wall time and the phase breakdown stays an honest partition of it. The
	// reset also empties the stability window, which keeps the constructor's
	// refresh samples out of the first sweep's autopilot decision. The
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
	// Per-sweep collection: with MeasureBoundaries every cluster boundary of
	// a measurement sweep contributes one sample (L/k per sweep) and the
	// sweep records their average; otherwise one is taken after the sweep.
	// The records are reused. The boundary hook may run on a pool worker
	// beside the chain (update.BoundaryHook): it writes only recs and taken,
	// which this goroutine reads once Sweep has returned.
	var recs []*measure.EqualTime
	taken := 0
	record := func(gup, gdn *mat.Dense, sign float64) {
		if taken == len(recs) {
			recs = append(recs, new(measure.EqualTime))
		}
		measure.MeasureInto(recs[taken], s.lat, gup, gdn, sign)
		taken++
	}
	defer s.sweeper.SetBoundaryHook(nil)
	// One sample a sweep, sign weighted, of the scalars, n_k, C_zz and the
	// layer densities, side by side.
	planeN := s.lat.Nx * s.lat.Ny
	etCzz := nScalars + planeN
	etLayers := etCzz + planeN
	row := make([]float64, etLayers+s.lat.Layers)
	etnk := make([]float64, planeN)
	warm := s.cfg.WarmSweeps
	for s.sweeps-warm < s.cfg.MeasSweeps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if s.sweeps >= warm && s.meas == nil {
			// G(d, tau) is measured at tau = every, 2·every, ..., L/2 with
			// every fixed here, so a cluster resize during measurement keeps
			// the grid (MeasureDisplaced splits any tau at the current k).
			s.meas = &Measurement{ET: stats.NewAccumulator(len(row)), Every: min(s.sweeper.ClusterK(), s.cfg.L/2)}
			if every := s.meas.Every; s.cfg.MeasureDynamics && every >= 1 {
				s.meas.Dyn = stats.NewAccumulator(s.cfg.L / 2 / every * planeN)
			}
		}
		m := s.meas
		if m != nil && s.cfg.MeasureBoundaries {
			s.sweeper.SetBoundaryHook(record)
		}
		taken = 0
		s.sweeps++
		if err := s.step(s.sweeps); err != nil {
			return nil, err
		}
		if m == nil {
			s.report(cb, "warmup", s.sweeps, warm)
			continue
		}
		start := s.col.Begin()
		if taken == 0 {
			record(s.sweeper.GreenUp(), s.sweeper.GreenDn(), s.sweeper.Sign())
		}
		if m.Dyn != nil {
			md, err := measureDisplaced(s.lat, s.prop, s.field, m.Every, s.cfg.L/2, s.sweeper.ClusterK())
			if err != nil {
				return nil, &ErrUnstable{Sweep: s.sweeps, Drift: s.sweeper.MaxWrapDrift(), Sign: s.sweeper.Sign(),
					Reason: fmt.Sprintf("singular displaced Green's function: %v", err)}
			}
			gd, sg := slices.Concat(md.GdTau...), s.sweeper.Sign()
			for i := range gd {
				gd[i] *= sg
			}
			m.Dyn.Push(gd, sg)
		}
		// Average the sweep's samples, sign weighted.
		inv := 1 / float64(taken)
		var sSign float64
		clear(row)
		for _, et := range recs[:taken] {
			sg := et.Sign
			sSign += sg * inv
			for i, v := range [nScalars]float64{et.Density(), et.DoubleOcc, et.Kinetic,
				et.LocalMoment, et.AFStructureFactor(), et.Kinetic + s.cfg.U*et.DoubleOcc} {
				row[i] += sg * v * inv
			}
			et.MomentumDistributionInto(etnk)
			for i, v := range etnk {
				row[nScalars+i] += sg * v * inv
			}
			for i, v := range et.Czz {
				row[etCzz+i] += sg * v * inv
			}
			for i, v := range et.LayerDensity {
				row[etLayers+i] += sg * v * inv
			}
		}
		m.ET.Push(row, sSign)
		s.col.End(obs.PhaseMeasure, start)
		s.report(cb, "measure", s.sweeps-warm, s.cfg.MeasSweeps)
	}
	m := s.meas
	s.sweeps, s.meas = 0, nil

	// The final statistics belong to the measurement phase of the breakdown.
	fstart := s.col.Begin()
	res := &Results{
		Config:       s.cfg,
		AvgSign:      m.ET.AvgSign(),
		Acceptance:   s.sweeper.AcceptanceRate(),
		MaxWrapDrift: s.sweeper.MaxWrapDrift(),
	}
	mean, errs := m.ET.Estimate()
	for i, f := range res.scalars() {
		*f[0], *f[1] = mean[i], errs[i]
	}
	res.Potential = s.cfg.U * res.DoubleOcc
	res.PotentialErr = math.Abs(s.cfg.U) * res.DoubleOccErr
	res.Nk, res.NkErr = mean[nScalars:etCzz:etCzz], errs[nScalars:etCzz:etCzz]
	res.Czz, res.CzzErr = mean[etCzz:etLayers:etLayers], errs[etCzz:etLayers:etLayers]
	res.LayerDensity = mean[etLayers:]
	if m.Dyn != nil {
		mean, errs := m.Dyn.Estimate()
		for i := range len(mean) / planeN {
			res.DisplacedTaus = append(res.DisplacedTaus, (i+1)*m.Every)
			res.GdTau = append(res.GdTau, mean[i*planeN:(i+1)*planeN:(i+1)*planeN])
			res.GdTauErr = append(res.GdTauErr, errs[i*planeN:(i+1)*planeN:(i+1)*planeN])
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

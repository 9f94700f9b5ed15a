// Package questgo is a pure-Go reimplementation of the QUEST Determinant
// Quantum Monte Carlo (DQMC) simulator for the Hubbard model, reproducing
// "Advancing Large Scale Many-Body QMC Simulations on GPU Accelerated
// Multicore Systems" (Tomas, Chang, Scalettar, Bai; IEEE IPDPS 2012).
//
// The package exposes the high-level simulation API; the building blocks
// live under internal/: dense kernels (internal/blas, internal/lapack),
// the stratified Green's function evaluation with the paper's pre-pivoting
// Algorithm 3 (internal/greens), the Metropolis sweep with delayed updates
// (internal/update), equal-time measurements (internal/measure), and a
// simulated GPU accelerator (internal/gpu).
//
// Quickstart:
//
//	cfg := questgo.DefaultConfig() // half-filled 4x4, U = 4
//	cfg.Beta, cfg.L = 4, 40
//	res, err := questgo.Run(context.Background(), cfg) // validates cfg first
//	if err != nil { ... }
//	fmt.Println(res.Density, res.DoubleOcc, res.SAF)
//	fmt.Println(res.Metrics.PhaseMS, res.Metrics.Stability.MaxWrapDrift)
//
// Run accepts options (WithProgress, WithWalkers) and stops cleanly at the
// next sweep when ctx is canceled. Run is the one canonical entry point;
// NewSimulation / Simulation.RunContext remain for callers that manage a
// Simulation directly (e.g. around checkpoints).
//
// Config round-trips through a canonical JSON wire format (snake_case keys
// matching the QUEST input-file vocabulary, stamped with schema_version)
// and carries a deterministic content hash, Config.Hash — the identity the
// service result cache is keyed on. NewServer runs the sharded simulation
// service (HTTP job API, worker pool, checkpointed fault recovery, result
// cache); NewServiceClient talks to one.
package questgo

import (
	"context"
	"fmt"
	"reflect"

	"questgo/internal/config"
	"questgo/internal/core"
	"questgo/internal/obs"
	"questgo/internal/service"
)

// Config specifies a DQMC simulation; see core.Config for field docs.
type Config = core.Config

// Results holds the Monte Carlo estimates of a finished run.
type Results = core.Results

// Simulation is a configured DQMC run.
type Simulation = core.Simulation

// Progress reports a running simulation's position to WithProgress callbacks.
type Progress = core.Progress

// Checkpoint captures the Markov-chain state of a simulation for restart
// files; see Simulation.Checkpoint, Resume, LoadCheckpoint.
type Checkpoint = core.Checkpoint

// ChiResult holds sampled imaginary-time spin susceptibilities; see
// Simulation.SampleSusceptibility.
type ChiResult = core.ChiResult

// Metrics is the exportable metrics document of a run: per-phase wall-time
// breakdown, operation counts and numerical-stability telemetry.
type Metrics = obs.Metrics

// RunOption configures a Run call; see WithProgress, WithWalkers.
type RunOption = core.RunOption

// Run options.
var (
	WithProgress = core.WithProgress
	WithWalkers  = core.WithWalkers
)

// DefaultConfig returns a small, fast, physically sensible configuration
// (half-filled 4x4 Hubbard model).
func DefaultConfig() Config { return core.DefaultConfig() }

// Run is the unified entry point: it validates and builds the simulation,
// executes the schedule under ctx (canceling stops between sweeps), and
// returns Results carrying the metrics document.
func Run(ctx context.Context, cfg Config, opts ...RunOption) (*Results, error) {
	return core.Run(ctx, cfg, opts...)
}

// Resume reconstructs a simulation from a checkpoint so the Markov chain
// continues exactly where it left off.
func Resume(c *Checkpoint) (*Simulation, error) { return core.Resume(c) }

// LoadCheckpoint reads a restart file written with Checkpoint.Save.
func LoadCheckpoint(path string) (*Checkpoint, error) { return core.LoadCheckpoint(path) }

// NewSimulation validates the configuration and prepares a simulation.
func NewSimulation(cfg Config) (*Simulation, error) { return core.New(cfg) }

// LoadConfig reads a QUEST-style "key = value" input file. The keys are
// Config's JSON tags (case-insensitive, all optional, defaulting to
// DefaultConfig):
//
//	nx, ny, layers    lattice dimensions
//	t, ty, tprime, tperp  hoppings: nearest (x / y), diagonal (t'), inter-layer
//	u, mu, beta, l    Hamiltonian and discretization
//	warm, meas        sweep counts
//	k                 matrix clustering size (= wrapping count)
//	delay             delayed-update block size
//	prepivot          true = Algorithm 3, false = Algorithm 2
//	serial_spins      true = run the two spin sectors one after the other
//	measure_boundaries  true = measure at every cluster boundary
//	measure_dynamics  true = also measure time-displaced G(d, tau)
//	stability_check_every  stack-vs-rebuild residual cadence (0 = off)
//	devices           simulated accelerators (0 = CPU sweeper)
//	graphs            true = device command-graph capture/replay
//	autopilot         true = adapt k (up to the configured k) and check
//	                  cadence from live telemetry
//	seed              RNG seed
func LoadConfig(path string) (Config, error) {
	f, err := config.Load(path)
	if err != nil {
		return Config{}, err
	}
	return ConfigFromFile(f)
}

// Service API: the sharded simulation server and its wire documents (see
// internal/service for docs). A job is one Config plus a shard count;
// shards are independent Markov chains seeded by core.WalkerSeed, so a
// 1-shard job is bitwise identical to a direct Run and an n-shard job
// reproduces Run(..., WithWalkers(n)).
type (
	// ServerOptions configures NewServer.
	ServerOptions = service.Options
	// Server is the sharded simulation service (an http.Handler).
	Server = service.Server
	// ServiceClient is the Go binding over the v1 HTTP job API.
	ServiceClient = service.Client
	// JobRequest is the POST /v1/jobs submission document.
	JobRequest = service.JobRequest
	// JobStatus is the GET /v1/jobs/{id} status document.
	JobStatus = service.JobStatus
	// JobResult is the GET /v1/jobs/{id}/result document.
	JobResult = service.JobResult
	// JobEvent is one line of the GET /v1/jobs/{id}/stream feed.
	JobEvent = service.Event
	// JobEstimate is the streaming cross-shard aggregate.
	JobEstimate = service.Estimate
	// ServerStats is the GET /v1/stats counters document.
	ServerStats = service.Stats
)

// NewServer builds a sharded simulation server and starts its worker pool;
// Close it when done.
func NewServer(opts ServerOptions) (*Server, error) { return service.New(opts) }

// NewServiceClient returns a client for a dqmcd server at base
// (e.g. "http://127.0.0.1:8517").
func NewServiceClient(base string) *ServiceClient { return &ServiceClient{Base: base} }

// ErrJobNotDone is returned by ServiceClient.Result / Server.Result for a
// job still in flight.
var ErrJobNotDone = service.ErrNotDone

// ConfigFromFile maps a parsed input file onto a Config, field by JSON tag.
func ConfigFromFile(f *config.File) (Config, error) {
	cfg := core.DefaultConfig()
	v := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < v.NumField(); i++ {
		key, fv := v.Type().Field(i).Tag.Get("json"), v.Field(i)
		switch fv.Kind() {
		case reflect.Int:
			fv.SetInt(int64(f.Int(key, int(fv.Int()))))
		case reflect.Float64:
			fv.SetFloat(f.Float(key, fv.Float()))
		case reflect.Bool:
			fv.SetBool(f.Bool(key, fv.Bool()))
		case reflect.Uint64:
			fv.SetUint(f.Uint64(key, fv.Uint()))
		}
	}
	if err := f.Err(); err != nil {
		return cfg, err
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("questgo: %w", err)
	}
	return cfg, nil
}

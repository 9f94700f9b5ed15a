package main

import (
	"math"

	"questgo/internal/core"
	"questgo/internal/rng"
	"questgo/internal/service"
)

// runWorkloadSpec is one of the four workloads that call questgo.Run. The
// benchmark measures in rounds: one round is one Run of this fixed schedule
// from a fresh random field, so every round is the same statistical weight
// and rounds repeat until -seconds have passed.
type runWorkloadSpec struct {
	name       string
	stream     uint64 // RNG stream of this workload's seeds
	nx, ny     int
	u, beta    float64
	l, k       int
	warm, meas int // sweeps of one round
	stabEvery  int
	devices    int
	graphs     bool
}

// The sizes are the issue's, with one round a fifth of the issue's single
// run so that several rounds fit the driver's time cap (see README.md).
var runWorkloads = []runWorkloadSpec{
	{name: "small_hot", stream: 1, nx: 4, ny: 4, u: 4, beta: 4, l: 40, k: 10, warm: 150, meas: 900},
	{name: "large_dense", stream: 2, nx: 12, ny: 12, u: 4, beta: 4, l: 40, k: 10, warm: 5, meas: 25},
	{name: "lowtemp_stack", stream: 3, nx: 6, ny: 6, u: 6, beta: 16, l: 160, k: 8, warm: 8, meas: 52, stabEvery: 4},
	{name: "device_graphs", stream: 4, nx: 8, ny: 8, u: 4, beta: 4, l: 40, k: 10, warm: 15, meas: 90, devices: 2, graphs: true},
}

const serviceWorkload = "service_mix"

func findRunWorkload(name string) *runWorkloadSpec {
	for i := range runWorkloads {
		if runWorkloads[i].name == name {
			return &runWorkloads[i]
		}
	}
	return nil
}

// scaled shrinks a count for smoke runs, never below floor.
func scaled(n int, scale float64, floor int) int {
	return max(int(math.Round(float64(n)*scale)), floor)
}

// config is the input of round `round`: everything but the seed is fixed.
func (w *runWorkloadSpec) config(seed uint64, round int, scale float64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Nx, cfg.Ny = w.nx, w.ny
	cfg.U, cfg.Mu, cfg.Beta, cfg.L = w.u, 0, w.beta, w.l
	cfg.ClusterK, cfg.Delay = w.k, 32
	cfg.WarmSweeps, cfg.MeasSweeps = scaled(w.warm, scale, 1), scaled(w.meas, scale, 1)
	cfg.StabilityCheckEvery = w.stabEvery
	cfg.Devices, cfg.UseGraphs = w.devices, w.graphs
	cfg.Seed = deriveSeed(seed, w.stream, round)
	return cfg
}

// deriveSeed spreads (seed, stream, i) over the 53 bits a JSON number
// carries exactly.
func deriveSeed(seed, stream uint64, i int) uint64 {
	return rng.NewStream(seed, stream<<32|uint64(i)).Uint64() >> 11
}

// Service traffic. One batch is serviceBatch jobs sent by serviceClients
// closed-loop clients; batches repeat until -seconds have passed.
const (
	serviceBatch   = 48
	serviceClients = 2
	serviceStream  = 5
	// A resubmitted job repeats the one this many places earlier. The
	// distance is odd and resubmits sit at even places, so the original is
	// never itself a resubmit; with two closed-loop clients it finished
	// long before.
	resubmitDistance = 17
)

type jobKind int

const (
	jobCold    jobKind = iota // first submission of its config
	jobRepeat                 // identical config again: a cache hit
	jobVariant                // same trajectory, serial_spins flipped: a miss today (ROADMAP 2a)
)

type serviceJob struct {
	Req  service.JobRequest
	Kind jobKind
}

// serviceJobs generates batch number `batch` of the traffic mix. Job i is
// 4x4, beta=4, L=40, warm 10 + meas 20, 1 shard; i mod 8 = 3 -> 6x6;
// = 5 -> 2 shards; = 7 -> both. From i = 16 on, i mod 4 = 2 resubmits job
// i-17 (i mod 16 = 14: with serial_spins flipped).
func serviceJobs(seed uint64, batch, n int) []serviceJob {
	jobs := make([]serviceJob, n)
	for i := range jobs {
		if i >= 16 && i%4 == 2 {
			jobs[i] = serviceJob{Req: jobs[i-resubmitDistance].Req, Kind: jobRepeat}
			if i%16 == 14 {
				jobs[i].Kind = jobVariant
				jobs[i].Req.Config.SerialSpins = !jobs[i].Req.Config.SerialSpins
			}
			continue
		}
		cfg := core.DefaultConfig()
		cfg.U, cfg.Mu, cfg.Beta, cfg.L = 4, 0, 4, 40
		cfg.ClusterK, cfg.Delay = 10, 32
		cfg.WarmSweeps, cfg.MeasSweeps = 10, 20
		cfg.Seed = deriveSeed(seed, serviceStream, batch*n+i)
		shards := 1
		if i%8 == 3 || i%8 == 7 {
			cfg.Nx, cfg.Ny = 6, 6
		}
		if i%8 == 5 || i%8 == 7 {
			shards = 2
		}
		jobs[i] = serviceJob{Req: service.JobRequest{Config: cfg, Shards: shards}}
	}
	return jobs
}

// plainJob reports whether a job belongs to the class the reference
// observables describe: a cold 4x4 job on one shard.
func (j *serviceJob) plainJob() bool {
	return j.Kind == jobCold && j.Req.Shards == 1 && j.Req.Config.Nx == 4
}

package update

import (
	"questgo/internal/blas"
	"questgo/internal/hubbard"
)

// Test-only windows for forks_test.go, which drives the device backend and
// so cannot live in this package (internal/gpu imports it), and for
// shadow_test.go.

// NewHost is the host backend constructor behind NewSweeper.
var NewHost NewBackend = newHost

// StepForkMinN is the crossover lattice size from which the per-slice steps
// fork.
const StepForkMinN = stepForkMinN

// Forks reports how many times the sweeper has forked its spin sectors.
func (sw *Sweeper) Forks() int64 { return sw.forks }

// SetForkSteps moves the sweeper to one side of the crossover whatever its
// N: forked per-slice steps and mid-slice flushes (true) or inline ones
// (false), so the two can be compared at the same lattice size.
func (sw *Sweeper) SetForkSteps(fork bool) { sw.forkSteps = fork }

// SetOnRoll makes f run first on the stacks' off-core roll, on whichever
// goroutine runs it, so a test can hold the roll in flight.
func (sw *Sweeper) SetOnRoll(f func()) {
	run := sw.roll.run
	sw.roll.run = func() { f(); run() }
}

// InFlight reports whether any of the sweep's tasks — the residual check,
// the roll, a boundary hook — has been started and not yet joined.
func (sw *Sweeper) InFlight() bool { return sw.probe.running || sw.roll.running || sw.hook.running }

// DenseKinetic returns a copy of p without its Kronecker factors, so a
// Sweeper over it applies the kinetic propagator by dense GEMMs at any N:
// the reference side of a shadow chain.
func DenseKinetic(p *hubbard.Propagator) *hubbard.Propagator {
	q := *p
	q.Sep = nil
	return &q
}

// OnDemandMinN is the lattice size from which the sectors build their
// pending rank-1 pairs on demand, where the delay kernels are vectorized.
const OnDemandMinN = onDemandMinN

// OnDemand reports whether the sweeper builds its pending rank-1 pairs on
// demand.
func (sw *Sweeper) OnDemand() bool { return sw.up.od.sec != nil && sw.dn.od.sec != nil }

// SetOnDemand moves the sweeper to either delayed-update path whatever its
// N: site rows on demand and a fill at the flush (true) or the eager push
// (false). Call it between sweeps; the on-demand path needs a delay block
// of at most blas.DelayRowsMax (blas.NewDelaySector panics otherwise).
func (sw *Sweeper) SetOnDemand(on bool) {
	for _, s := range []*spinState{sw.up, sw.dn} {
		switch {
		case !on:
			s.od.sec = nil
		case s.od.sec == nil:
			s.od.sec = blas.NewDelaySector(s.g, s.u, s.w)
		}
	}
}

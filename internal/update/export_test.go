package update

// Test-only windows for forks_test.go, which drives the device backend and
// so cannot live in this package (internal/gpu imports it).

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

// SetOnRoll makes f run first on the stacks' deferred roll, on whichever
// goroutine runs it, so a test can hold the roll in flight.
func (sw *Sweeper) SetOnRoll(f func()) { sw.roll.onRun = f }

package update

// Test-only windows for forks_test.go, which drives the device backend and
// so cannot live in this package (internal/gpu imports it).

// NewHost is the host backend constructor behind NewSweeper.
var NewHost NewBackend = newHost

// Forks reports how many times the sweeper has forked its spin sectors.
func (sw *Sweeper) Forks() int64 { return sw.forks }

package parallel

// Test-only windows for the external tests (chain_test.go), which need
// internal/core and so cannot live in this package.

var CountHandoffs = countHandoffs

// Chains reports how many chains are registered.
func Chains() int { return int(chains.Load()) }

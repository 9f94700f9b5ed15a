package analysis

import (
	"strings"
)

// RngDiscipline forbids math/rand (and math/rand/v2) everywhere except
// internal/rng. Monte Carlo trajectories must be exactly reproducible from
// a single seed: the validation pipeline compares physical observables
// against published runs, checkpoints resume mid-chain, and the
// spin-parallel sweep relies on per-stream determinism. A stray global
// rand source — seeded from the clock, shared across goroutines — breaks
// all three silently. All randomness flows through the deterministic
// xoshiro256** streams of internal/rng.
// rngdiscipline diagnostic format.
const msgRngImport = "import of %s outside internal/rng breaks deterministic trajectories; use rng.New/rng.NewStream"

var RngDiscipline = &Analyzer{
	Name: "rngdiscipline",
	Doc:  "math/rand is forbidden outside internal/rng",
	Messages: []string{
		msgRngImport,
	},
	Run: runRngDiscipline,
}

func runRngDiscipline(pass *Pass) error {
	if pass.PkgPath == pkgRng {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), msgRngImport, path)
			}
		}
	}
	return nil
}

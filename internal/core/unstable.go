package core

import (
	"fmt"
	"math"

	"questgo/internal/autopilot"
)

// MaxStableWrapDrift is the largest wrap drift (Results.MaxWrapDrift) a run
// without the autopilot may reach: the autopilot's drift ceiling, past which
// the chain's results cannot be trusted. The autopilot owns the drift when
// it is on — it shrinks the clustering in response — so only a non-finite
// drift stops such a run.
const MaxStableWrapDrift = autopilot.DriftCeiling

// ErrUnstable is the error Run (and RunContext) returns when the chain's
// numerics fail between two sweeps: a stratified refresh met a singular
// I + B...B (update.Sweeper.Err), the wrap drift is non-finite, or past
// MaxStableWrapDrift with the autopilot off, or the fermion sign turned
// negative on a model whose weight cannot be negative (see signFree). No
// Results are returned: the measurements of such a chain are not
// estimates of anything. Reach it with errors.As.
type ErrUnstable struct {
	Sweep  int     // sweeps completed, warm-up included, when the check tripped
	Drift  float64 // the wrap drift then
	Sign   float64 // the fermion sign then
	Reason string
}

func (e *ErrUnstable) Error() string {
	return fmt.Sprintf("core: numerically unstable after sweep %d: %s", e.Sweep, e.Reason)
}

// signFree reports whether the configuration weight det(M+)det(M-) is
// non-negative for every field: the attractive model, whose two
// determinants are equal, or the repulsive one at half filling on a
// bipartite lattice (mu = 0, no diagonal hopping t', even Nx and Ny), where
// particle-hole symmetry makes them of one sign.
func signFree(cfg Config) bool {
	return cfg.U < 0 || cfg.Mu == 0 && cfg.TPrime == 0 && cfg.Nx%2 == 0 && cfg.Ny%2 == 0
}

// checkStable returns an *ErrUnstable if the chain failed a check after
// sweep (counted from 1, warm-up included), nil otherwise.
func (s *Simulation) checkStable(sweep int) error {
	drift, sign := s.sweeper.MaxWrapDrift(), s.sweeper.Sign()
	var reason string
	switch err := s.sweeper.Err(); {
	case err != nil:
		reason = fmt.Sprintf("singular stratified refresh: %v", err)
	case math.IsNaN(drift) || math.IsInf(drift, 0):
		reason = fmt.Sprintf("wrap drift is %v", drift)
	case s.pilot == nil && drift > MaxStableWrapDrift:
		reason = fmt.Sprintf("wrap drift %.3g exceeds %g at clustering k = %d", drift, MaxStableWrapDrift, s.sweeper.ClusterK())
	case sign < 0 && signFree(s.cfg):
		reason = "fermion sign turned negative on a model whose weight is non-negative"
	default:
		return nil
	}
	return &ErrUnstable{Sweep: sweep, Drift: drift, Sign: sign, Reason: reason}
}

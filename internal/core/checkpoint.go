package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"questgo/internal/autopilot"
	"questgo/internal/obs"
)

// Checkpoint captures the complete Markov-chain state of a simulation: the
// configuration, the Hubbard-Stratonovich field, the RNG state, and the
// incrementally tracked fermion sign. A chain resumed from a checkpoint
// reproduces the uninterrupted run sweep for sweep (verified by tests) —
// the long production runs of the paper (36 hours for N = 1024) are
// exactly the kind of job that needs restart files.
type Checkpoint struct {
	Config   Config
	FieldH   [][]float64
	RngState [4]uint64
	Sign     float64
	// Accepted/Proposed are the lifetime Metropolis counters, carried so a
	// resumed run's acceptance rate covers the whole chain, not just the
	// sweeps executed after the restart. Old restart files decode them as
	// zero, which reproduces the previous post-restart behavior.
	Accepted int64
	Proposed int64
	// Autopilot is the controller state when Config.Autopilot is on (nil
	// otherwise): the resumed run continues with the adapted cluster size and
	// check cadence instead of restarting the adaptation from the config.
	Autopilot *autopilot.State
}

// Checkpoint snapshots the current chain state. Call it between sweeps
// (e.g. from a WithProgress callback after the sweep completes).
func (s *Simulation) Checkpoint() *Checkpoint {
	c := &Checkpoint{
		Config:   s.cfg,
		FieldH:   make([][]float64, len(s.field.H)),
		RngState: s.rng.State(),
		Sign:     s.sweeper.Sign(),
	}
	c.Accepted, c.Proposed = s.sweeper.Counters()
	for i, row := range s.field.H {
		c.FieldH[i] = append([]float64(nil), row...)
	}
	if s.pilot != nil {
		st := s.pilot.State()
		c.Autopilot = &st
	}
	return c
}

// Encode serializes the checkpoint with encoding/gob.
func (c *Checkpoint) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(c)
}

// Save writes the checkpoint to a file, atomically via a temp file rename.
func (c *Checkpoint) Save(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := c.Encode(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadCheckpoint deserializes a checkpoint from r.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, err
	}
	return &c, nil
}

// LoadCheckpoint reads a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// Resume reconstructs a Simulation whose Markov chain continues exactly
// where the checkpoint left off. The caller chooses the remaining sweep
// schedule through the checkpointed Config (adjust WarmSweeps/MeasSweeps
// before calling if needed).
func Resume(c *Checkpoint) (*Simulation, error) {
	switch {
	case c.RngState == [4]uint64{}:
		return nil, fmt.Errorf("core: checkpoint RNG state is all zero")
	case c.Sign != 1 && c.Sign != -1:
		return nil, fmt.Errorf("core: checkpoint sign %v, want +1 or -1", c.Sign)
	case c.Accepted < 0 || c.Accepted > c.Proposed:
		return nil, fmt.Errorf("core: checkpoint counters accepted %d of %d proposed", c.Accepted, c.Proposed)
	}
	sim, err := newBase(c.Config, obs.New())
	if err != nil {
		return nil, err
	}
	n := sim.model.N()
	if len(c.FieldH) != c.Config.L {
		return nil, fmt.Errorf("core: checkpoint field has %d slices, config needs %d", len(c.FieldH), c.Config.L)
	}
	for l, row := range c.FieldH {
		if len(row) != n {
			return nil, fmt.Errorf("core: checkpoint slice %d has %d sites, lattice has %d", l, len(row), n)
		}
		for i, v := range row {
			if v != 1 && v != -1 {
				return nil, fmt.Errorf("core: checkpoint field value %v at (%d,%d)", v, l, i)
			}
			sim.field.H[l][i] = v
		}
	}
	sim.rng.Restore(c.RngState)
	// A restored autopilot overrides the config's k and cadence with the
	// adapted values, so the sweeper — built once, from the restored field —
	// continues where the controller left off.
	if c.Autopilot != nil && sim.pilot != nil {
		sim.pilot.Restore(*c.Autopilot)
	}
	sim.startSweeper()
	sim.sweeper.SetSign(c.Sign)
	sim.sweeper.SetCounters(c.Accepted, c.Proposed)
	return sim, nil
}

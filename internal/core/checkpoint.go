package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"questgo/internal/autopilot"
	"questgo/internal/obs"
)

// Checkpoint captures the complete state of a simulation: the
// configuration, the Hubbard-Stratonovich field, the RNG state, the
// incrementally tracked fermion sign, and the place in the schedule with
// the measurement so far. A simulation resumed from a checkpoint continues
// the run and yields the uninterrupted run's Results (verified by tests) —
// the long production runs of the paper (36 hours for N = 1024) are
// exactly the kind of job that needs restart files.
type Checkpoint struct {
	Config   Config
	FieldH   [][]float64
	RngState [4]uint64
	Sign     float64
	// Accepted/Proposed are the lifetime Metropolis counters and
	// MaxWrapDrift the lifetime maximum wrap drift, carried so a resumed
	// run's acceptance and drift cover the whole chain. Old restart files
	// decode them as zero: they then cover the sweeps after the restart.
	Accepted     int64
	Proposed     int64
	MaxWrapDrift float64
	// Autopilot is the controller state when Config.Autopilot is on (nil
	// otherwise): the resumed run continues with the adapted cluster size and
	// check cadence instead of restarting the adaptation from the config.
	Autopilot *autopilot.State
	// Sweeps is the run's place in the schedule (the sweeps done of
	// WarmSweeps + MeasSweeps) and Meas its measurement so far. Between
	// runs, and in older files, they are 0 and nil: the schedule restarts.
	Sweeps int
	Meas   *Measurement
}

// Checkpoint snapshots the current state. Call it between sweeps: from a
// WithProgress callback, or after RunContext has returned.
func (s *Simulation) Checkpoint() *Checkpoint {
	c := &Checkpoint{
		Config:       s.cfg,
		FieldH:       make([][]float64, len(s.field.H)),
		RngState:     s.rng.State(),
		Sign:         s.sweeper.Sign(),
		MaxWrapDrift: s.sweeper.MaxWrapDrift(),
		Sweeps:       s.sweeps,
		Meas:         s.meas.clone(),
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
	// Synced before the rename: a crash leaves no empty file at path.
	if err = errors.Join(c.Encode(f), f.Sync(), f.Close()); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
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

// Resume reconstructs a Simulation that continues the checkpointed run
// from its place in the schedule, with the Markov chain exactly where it
// left off. The file is treated as hostile: every field is checked against
// the config before anything runs.
func Resume(c *Checkpoint) (*Simulation, error) {
	switch {
	case c.RngState == [4]uint64{}:
		return nil, fmt.Errorf("core: checkpoint RNG state is all zero")
	case c.Sign != 1 && c.Sign != -1:
		return nil, fmt.Errorf("core: checkpoint sign %v, want +1 or -1", c.Sign)
	case c.Accepted < 0 || c.Accepted > c.Proposed:
		return nil, fmt.Errorf("core: checkpoint counters accepted %d of %d proposed", c.Accepted, c.Proposed)
	case !(c.MaxWrapDrift >= 0 && c.MaxWrapDrift <= math.MaxFloat64):
		return nil, fmt.Errorf("core: checkpoint wrap drift %v", c.MaxWrapDrift)
	}
	sim, err := newBase(c.Config, obs.New())
	if err != nil {
		return nil, err
	}
	if err := sim.checkPlace(c.Sweeps, c.Meas); err != nil {
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
	sim.sweeper.SetMaxWrapDrift(c.MaxWrapDrift)
	sim.sweeps, sim.meas = c.Sweeps, c.Meas.clone()
	return sim, nil
}

// checkPlace reports whether the run can continue from sweep sweeps with
// measurement m: one sample a measurement sweep done, on an allowed tau grid.
func (s *Simulation) checkPlace(sweeps int, m *Measurement) error {
	done := sweeps - s.cfg.WarmSweeps
	if sweeps < 0 || done >= s.cfg.MeasSweeps || (m != nil) != (done > 0) {
		return fmt.Errorf("core: checkpoint at sweep %d of %d + %d, measurement present: %v", sweeps, s.cfg.WarmSweeps, s.cfg.MeasSweeps, m != nil)
	} else if m == nil {
		return nil
	}
	planeN, dyn := s.lat.Nx*s.lat.Ny, s.cfg.MeasureDynamics && m.Every >= 1
	if m.Every < min(1, s.cfg.L/2) || m.Every > s.cfg.L/2 || (m.Dyn != nil) != dyn {
		return fmt.Errorf("core: checkpoint tau spacing %d for %d slices, G(d,tau) accumulator present: %v", m.Every, s.cfg.L, m.Dyn != nil)
	}
	if err := m.ET.Check(nScalars+2*planeN+s.lat.Layers, done); err != nil || !dyn {
		return err
	}
	return m.Dyn.Check(s.cfg.L/2/m.Every*planeN, done)
}

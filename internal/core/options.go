package core

// ConfigOption adjusts one aspect of a Config under construction; see
// NewConfig.
type ConfigOption func(*Config)

// NewConfig builds a validated configuration: it starts from DefaultConfig,
// applies the options in order, and runs Validate. This is the preferred
// construction path — commands and library callers get the paper's
// canonical defaults plus exactly the knobs they set, and an invalid
// combination fails at build time instead of deep inside New.
func NewConfig(opts ...ConfigOption) (Config, error) {
	cfg := DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// With returns a copy of c with the options applied and validated — the
// same builder semantics as NewConfig but starting from an existing
// configuration (e.g. one loaded from an input file, with command-line
// overrides applied on top).
func (c Config) With(opts ...ConfigOption) (Config, error) {
	for _, opt := range opts {
		opt(&c)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// WithLattice sets the in-plane lattice dimensions.
func WithLattice(nx, ny int) ConfigOption {
	return func(c *Config) { c.Nx, c.Ny = nx, ny }
}

// WithLayers sets the layer count and inter-layer hopping tperp (layers = 1
// restores the standard 2D model; tperp is ignored then).
func WithLayers(layers int, tperp float64) ConfigOption {
	return func(c *Config) { c.Layers, c.Tperp = layers, tperp }
}

// WithHopping sets the in-plane hopping amplitudes: t in x (and y unless ty
// is nonzero), ty anisotropic y hopping, tprime the diagonal next-nearest
// neighbor.
func WithHopping(t, ty, tprime float64) ConfigOption {
	return func(c *Config) { c.T, c.Ty, c.TPrime = t, ty, tprime }
}

// WithInteraction sets the on-site repulsion U and chemical potential mu.
func WithInteraction(u, mu float64) ConfigOption {
	return func(c *Config) { c.U, c.Mu = u, mu }
}

// WithTemperature sets the inverse temperature beta and the number of
// imaginary-time slices L.
func WithTemperature(beta float64, l int) ConfigOption {
	return func(c *Config) { c.Beta, c.L = beta, l }
}

// WithSchedule sets the warmup and measurement sweep counts.
func WithSchedule(warm, meas int) ConfigOption {
	return func(c *Config) { c.WarmSweeps, c.MeasSweeps = warm, meas }
}

// WithClusterK sets the matrix clustering size k (0 keeps the default).
func WithClusterK(k int) ConfigOption {
	return func(c *Config) { c.ClusterK = k }
}

// WithDelay sets the delayed-update block size nd (0 keeps the default).
func WithDelay(nd int) ConfigOption {
	return func(c *Config) { c.Delay = nd }
}

// WithPrePivot selects the stratification variant: true is the paper's
// Algorithm 3 (pre-pivoted QR), false the Algorithm 2 QRP reference.
func WithPrePivot(on bool) ConfigOption {
	return func(c *Config) { c.PrePivot = on }
}

// WithSerialSpins disables the concurrent up/down spin phases.
func WithSerialSpins(on bool) ConfigOption {
	return func(c *Config) { c.SerialSpins = on }
}

// WithMeasureBoundaries toggles per-boundary equal-time measurements.
func WithMeasureBoundaries(on bool) ConfigOption {
	return func(c *Config) { c.MeasureBoundaries = on }
}

// WithMeasureDynamics toggles time-displaced Green's function measurement.
func WithMeasureDynamics(on bool) ConfigOption {
	return func(c *Config) { c.MeasureDynamics = on }
}

// WithStabilityCheck samples the stack-vs-rebuild stratification residual
// every k cluster boundaries (0 disables the check).
func WithStabilityCheck(k int) ConfigOption {
	return func(c *Config) { c.StabilityCheckEvery = k }
}

// WithDevices runs the sweeps on n simulated accelerators (0 restores the
// CPU sweeper; n > 1 shards the spin sectors and their cluster blocks
// across the device group). Same physics, device-modeled timing.
func WithDevices(n int) ConfigOption {
	return func(c *Config) { c.Devices = n }
}

// WithGraphs toggles device command-graph capture/replay of the wrap and
// cluster launch sequences (requires WithDevices >= 1). Modeled-time only.
func WithGraphs(on bool) ConfigOption {
	return func(c *Config) { c.UseGraphs = on }
}

// WithSeed sets the RNG seed.
func WithSeed(seed uint64) ConfigOption {
	return func(c *Config) { c.Seed = seed }
}

// WithAutopilot toggles the stability feedback controller: live drift,
// residual and condition telemetry adapt ClusterK and the stability-check
// cadence between sweeps (see internal/autopilot).
func WithAutopilot(on bool) ConfigOption {
	return func(c *Config) { c.Autopilot = on }
}

// WithAutopilotBounds bounds the autopilot's adapted cluster size to
// [minK, maxK] (0 keeps the controller default for that bound).
func WithAutopilotBounds(minK, maxK int) ConfigOption {
	return func(c *Config) { c.AutopilotMinK, c.AutopilotMaxK = minK, maxK }
}

// WithAutopilotCeilings sets the autopilot shrink thresholds: the log10 UDT
// condition ceiling, the wrap-drift ceiling and the strat-residual ceiling
// (0 keeps the controller default for that threshold).
func WithAutopilotCeilings(condLog10, drift, residual float64) ConfigOption {
	return func(c *Config) {
		c.AutopilotCondCeil = condLog10
		c.AutopilotDriftCeil = drift
		c.AutopilotResidualCeil = residual
	}
}

// Package profile accumulates wall-clock time per DQMC phase, reproducing
// the breakdown of the paper's Table I (delayed update, stratification,
// clustering, wrapping, physical measurements).
package profile

import (
	"fmt"
	"strings"
	"time"

	"questgo/internal/obs"
)

// Category labels one row of Table I.
type Category int

const (
	DelayedUpdate Category = iota
	Stratification
	Clustering
	Wrapping
	Measurement
	NumCategories
)

// Name returns the paper's row label for the category.
func (c Category) Name() string {
	switch c {
	case DelayedUpdate:
		return "Delayed rank-1 update"
	case Stratification:
		return "Stratification"
	case Clustering:
		return "Clustering"
	case Wrapping:
		return "Wrapping"
	case Measurement:
		return "Physical meas."
	}
	return "unknown"
}

// Profile accumulates durations. It is filled on one goroutine (FromPhases,
// core.MergeResults) and is not safe for concurrent use.
type Profile struct {
	d [NumCategories]time.Duration
}

// New returns an empty profile.
func New() *Profile { return &Profile{} }

// Add accumulates d into category c. A nil profile is a no-op.
func (p *Profile) Add(c Category, d time.Duration) {
	if p == nil {
		return
	}
	p.d[c] += d
}

// Duration returns the accumulated time for category c.
func (p *Profile) Duration(c Category) time.Duration {
	if p == nil {
		return 0
	}
	return p.d[c]
}

// Total returns the sum over all categories.
func (p *Profile) Total() time.Duration {
	if p == nil {
		return 0
	}
	var t time.Duration
	for _, v := range p.d {
		t += v
	}
	return t
}

// Percentages returns each category's share of the total, in percent.
func (p *Profile) Percentages() [NumCategories]float64 {
	var out [NumCategories]float64
	total := p.Total()
	if total == 0 {
		return out
	}
	for i, v := range p.d {
		out[i] = 100 * float64(v) / float64(total)
	}
	return out
}

// FromPhases converts an obs per-phase breakdown into the Table-I view:
// wrap -> Wrapping, flush -> DelayedUpdate, cluster -> Clustering,
// refresh -> Stratification, measure -> Measurement. The instrumentation
// lives in obs; this package is now only the paper-facing rendering of it.
func FromPhases(pd obs.PhaseDurations) *Profile {
	p := New()
	p.Add(Wrapping, pd[obs.PhaseWrap])
	p.Add(DelayedUpdate, pd[obs.PhaseFlush])
	p.Add(Clustering, pd[obs.PhaseCluster])
	p.Add(Stratification, pd[obs.PhaseRefresh])
	p.Add(Measurement, pd[obs.PhaseMeasure])
	return p
}

// Table renders the Table-I-style breakdown.
func (p *Profile) Table() string {
	pc := p.Percentages()
	var sb strings.Builder
	for c := Category(0); c < NumCategories; c++ {
		fmt.Fprintf(&sb, "%-24s %6.1f%%  (%v)\n", c.Name(), pc[c], p.Duration(c).Round(time.Millisecond))
	}
	return sb.String()
}

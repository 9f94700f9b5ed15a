package service

import (
	"fmt"

	"questgo/internal/core"
)

// Estimate is the streaming cross-shard aggregate published while a job
// runs: the scalar observables of core.MergeResults over the shards landed
// so far (each shard is an independent chain: the shards' own errors in
// quadrature, or the spread of their estimates where that is larger). With
// one landed shard the shard's own log-binning errors are reported.
type Estimate struct {
	SchemaVersion string `json:"schema_version,omitempty"`
	// Shards is how many chains have landed in this aggregate.
	Shards int `json:"shards"`

	Density      float64 `json:"density"`
	DensityErr   float64 `json:"density_err"`
	DoubleOcc    float64 `json:"double_occupancy"`
	DoubleOccErr float64 `json:"double_occupancy_err"`
	Energy       float64 `json:"energy"`
	EnergyErr    float64 `json:"energy_err"`
	SAF          float64 `json:"s_af"`
	SAFErr       float64 `json:"s_af_err"`
	AvgSign      float64 `json:"avg_sign"`
}

// Aggregator accumulates shard results as they land, in any order, and
// merges them deterministically: results are stored by shard index, and
// every aggregate (partial or final) is computed over the landed subset in
// index order — so the same landed set always yields the same bytes, and
// the final merge is independent of worker scheduling.
type Aggregator struct {
	results []*core.Results // nil once released
	landed  int
	last    *Estimate // the estimate at release
}

// NewAggregator prepares an aggregator for n shards.
func NewAggregator(n int) *Aggregator {
	return &Aggregator{results: make([]*core.Results, n)}
}

// Land stores shard idx's result. Landing the same shard twice is a
// programming error (the queue retires a shard exactly once).
func (a *Aggregator) Land(idx int, r *core.Results) {
	if a.results[idx] != nil {
		panic(fmt.Sprintf("service: shard %d landed twice", idx))
	}
	a.results[idx] = r
	a.landed++
}

// Landed reports how many shards have landed.
func (a *Aggregator) Landed() int { return a.landed }

// landedInOrder returns the landed results by ascending shard index.
func (a *Aggregator) landedInOrder() []*core.Results {
	out := make([]*core.Results, 0, a.landed)
	for _, r := range a.results {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Estimate computes the streaming aggregate over the landed shards (nil if
// none landed yet).
func (a *Aggregator) Estimate() *Estimate {
	if a.results == nil {
		if a.last == nil {
			return nil
		}
		e := *a.last
		return &e
	}
	rs := a.landedInOrder()
	if len(rs) == 0 {
		return nil
	}
	// The same merge as Final, so a partial over the full landed set reads
	// exactly as the result document does. A merge that fails (shards of
	// different shapes) has no estimate; Final reports the error.
	m, err := core.MergeResults(rs)
	if err != nil {
		return nil
	}
	return &Estimate{
		SchemaVersion: JobSchemaVersion, Shards: len(rs),
		Density: m.Density, DensityErr: m.DensityErr,
		DoubleOcc: m.DoubleOcc, DoubleOccErr: m.DoubleOccErr,
		Energy: m.Energy, EnergyErr: m.EnergyErr,
		SAF: m.SAF, SAFErr: m.SAFErr,
		AvgSign: m.AvgSign,
	}
}

// release drops the shard results once the job is terminal, keeping the
// landed count and the last estimate so status documents read as before.
func (a *Aggregator) release() {
	a.last = a.Estimate()
	a.results = nil
}

// Final merges all shards into the job's result document. Every shard must
// have landed. The merge is core.MergeResults over the shards in index
// order — exactly what Run(..., WithWalkers(n)) computes, and for one shard
// the shard's Results pointer itself (bitwise identical to a direct Run).
func (a *Aggregator) Final() (*core.Results, error) {
	if a.landed != len(a.results) {
		return nil, fmt.Errorf("service: final aggregate needs all %d shards, have %d", len(a.results), a.landed)
	}
	return core.MergeResults(a.landedInOrder())
}

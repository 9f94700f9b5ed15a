package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"questgo/internal/obs"
	"questgo/internal/profile"
	"questgo/internal/schema"
)

// ResultsSchemaVersion is the wire version of the results document. Major
// bumps rename/retype/remove fields; minor bumps only add.
const ResultsSchemaVersion = "1.0"

// resultsJSON is the serialization view of Results: everything a
// downstream analysis needs, with the profile flattened to percentages.
type resultsJSON struct {
	SchemaVersion string `json:"schema_version,omitempty"`
	Config        Config `json:"config"`

	Density        float64 `json:"density"`
	DensityErr     float64 `json:"density_err"`
	DoubleOcc      float64 `json:"double_occupancy"`
	DoubleOccErr   float64 `json:"double_occupancy_err"`
	Kinetic        float64 `json:"kinetic"`
	KineticErr     float64 `json:"kinetic_err"`
	Potential      float64 `json:"potential"`
	PotentialErr   float64 `json:"potential_err"`
	Energy         float64 `json:"energy"`
	EnergyErr      float64 `json:"energy_err"`
	LocalMoment    float64 `json:"local_moment"`
	LocalMomentErr float64 `json:"local_moment_err"`
	SAF            float64 `json:"s_af"`
	SAFErr         float64 `json:"s_af_err"`

	AvgSign      float64 `json:"avg_sign"`
	Acceptance   float64 `json:"acceptance"`
	MaxWrapDrift float64 `json:"max_wrap_drift"`

	Nk           []float64 `json:"nk"`
	NkErr        []float64 `json:"nk_err"`
	Czz          []float64 `json:"czz"`
	CzzErr       []float64 `json:"czz_err"`
	LayerDensity []float64 `json:"layer_density,omitempty"`

	DisplacedTaus []int       `json:"displaced_taus,omitempty"`
	GdTau         [][]float64 `json:"gd_tau,omitempty"`
	GdTauErr      [][]float64 `json:"gd_tau_err,omitempty"`

	// Metrics is the run's full metrics document (phase breakdown, op
	// counts, stability telemetry); ProfilePercent is the legacy Table-I
	// flattening kept for downstream readers.
	Metrics        *obs.Metrics       `json:"metrics,omitempty"`
	ProfilePercent map[string]float64 `json:"profile_percent,omitempty"`
}

// MarshalJSON emits the stable results wire document (the same shape
// WriteJSON has always produced, now stamped with schema_version). Results
// is one of the service's wire formats, so the in-memory struct and the
// document are convertible in both directions.
func (r *Results) MarshalJSON() ([]byte, error) {
	out := resultsJSON{
		SchemaVersion:  ResultsSchemaVersion,
		Config:         r.Config,
		Density:        r.Density,
		DensityErr:     r.DensityErr,
		DoubleOcc:      r.DoubleOcc,
		DoubleOccErr:   r.DoubleOccErr,
		Kinetic:        r.Kinetic,
		KineticErr:     r.KineticErr,
		Potential:      r.Potential,
		PotentialErr:   r.PotentialErr,
		Energy:         r.Energy,
		EnergyErr:      r.EnergyErr,
		LocalMoment:    r.LocalMoment,
		LocalMomentErr: r.LocalMomentErr,
		SAF:            r.SAF,
		SAFErr:         r.SAFErr,
		AvgSign:        r.AvgSign,
		Acceptance:     r.Acceptance,
		MaxWrapDrift:   r.MaxWrapDrift,
		Nk:             r.Nk,
		NkErr:          r.NkErr,
		Czz:            r.Czz,
		CzzErr:         r.CzzErr,
		LayerDensity:   r.LayerDensity,
		DisplacedTaus:  r.DisplacedTaus,
		GdTau:          r.GdTau,
		GdTauErr:       r.GdTauErr,
		Metrics:        r.Metrics,
	}
	if r.Prof != nil {
		pc := r.Prof.Percentages()
		out.ProfilePercent = map[string]float64{}
		for c := profile.Category(0); c < profile.NumCategories; c++ {
			out.ProfilePercent[c.Name()] = pc[c]
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes a results wire document back into Results,
// rejecting incompatible majors. The Prof rendering is derived output and
// is not reconstructed (it survives as ProfilePercent in the document);
// every physical observable round-trips bitwise — float64 values survive
// JSON encoding exactly.
func (r *Results) UnmarshalJSON(data []byte) error {
	var probe struct {
		SchemaVersion string `json:"schema_version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return err
	}
	if err := schema.Check(probe.SchemaVersion, ResultsSchemaVersion); err != nil {
		return fmt.Errorf("core: results: %w", err)
	}
	var in resultsJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*r = Results{
		Config:         in.Config,
		Density:        in.Density,
		DensityErr:     in.DensityErr,
		DoubleOcc:      in.DoubleOcc,
		DoubleOccErr:   in.DoubleOccErr,
		Kinetic:        in.Kinetic,
		KineticErr:     in.KineticErr,
		Potential:      in.Potential,
		PotentialErr:   in.PotentialErr,
		Energy:         in.Energy,
		EnergyErr:      in.EnergyErr,
		LocalMoment:    in.LocalMoment,
		LocalMomentErr: in.LocalMomentErr,
		SAF:            in.SAF,
		SAFErr:         in.SAFErr,
		AvgSign:        in.AvgSign,
		Acceptance:     in.Acceptance,
		MaxWrapDrift:   in.MaxWrapDrift,
		Nk:             in.Nk,
		NkErr:          in.NkErr,
		Czz:            in.Czz,
		CzzErr:         in.CzzErr,
		LayerDensity:   in.LayerDensity,
		DisplacedTaus:  in.DisplacedTaus,
		GdTau:          in.GdTau,
		GdTauErr:       in.GdTauErr,
		Metrics:        in.Metrics,
	}
	return nil
}

// WriteJSON writes the results as indented JSON.
func (r *Results) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// SaveJSON writes the results to a file.
func (r *Results) SaveJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"questgo/internal/schema"
)

// ResultsSchemaVersion is the wire version of the results document. Major
// bumps rename/retype/remove fields; minor bumps only add. 2.0 removed
// profile_percent (metrics.phase_percent holds the same shares by phase key).
const ResultsSchemaVersion = "2.0"

// plainResults is Results without its JSON methods: encoding/json walks the
// tagged fields themselves.
type plainResults Results

// MarshalJSON emits the results wire document: a schema_version stamp, then
// every field under its tag in declaration order. Results is one of the
// service's wire formats, so the in-memory struct and the document are
// convertible in both directions.
func (r *Results) MarshalJSON() ([]byte, error) {
	fields, err := json.Marshal((*plainResults)(r))
	if err != nil {
		return nil, err
	}
	const stamp = `{"schema_version":"` + ResultsSchemaVersion + `",`
	return append([]byte(stamp), fields[1:]...), nil
}

// UnmarshalJSON decodes a results wire document back into Results,
// rejecting incompatible majors. Every physical observable round-trips
// bitwise — float64 values survive JSON encoding exactly.
func (r *Results) UnmarshalJSON(data []byte) error {
	w := struct {
		SchemaVersion string `json:"schema_version"`
		*plainResults
	}{plainResults: new(plainResults)}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if err := schema.Check(w.SchemaVersion, ResultsSchemaVersion); err != nil {
		return fmt.Errorf("core: results: %w", err)
	}
	*r = Results(*w.plainResults)
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

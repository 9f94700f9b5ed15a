package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"questgo/internal/schema"
)

// ConfigSchemaVersion is the wire version of the canonical Config JSON
// document. The major is bumped on any change that renames, retypes or
// removes a field; adding a field bumps the minor only (decoders ignore
// fields they don't know, so minors are forward- and backward-readable).
// 2.0 removed the oracle-only "nostack" key; 3.0 removed the five autopilot
// tuning keys.
const ConfigSchemaVersion = "3.0"

// plainConfig is Config without its JSON methods: encoding/json walks the
// tagged fields themselves.
type plainConfig Config

// MarshalJSON emits the canonical wire form of the configuration: a
// schema_version stamp, then every field under the stable snake_case names
// of the struct tags. This is the shape the service job API accepts and the
// results document embeds.
func (c Config) MarshalJSON() ([]byte, error) {
	fields, err := json.Marshal(plainConfig(c))
	if err != nil {
		return nil, err
	}
	const stamp = `{"schema_version":"` + ConfigSchemaVersion + `",`
	return append([]byte(stamp), fields[1:]...), nil
}

// UnmarshalJSON decodes the canonical wire form. A missing schema_version
// is read as the current version (hand-written job requests stay
// convenient); an incompatible major is rejected. Unknown fields are
// ignored, which is what makes minor version bumps additive.
func (c *Config) UnmarshalJSON(data []byte) error {
	w := struct {
		SchemaVersion string `json:"schema_version"`
		*plainConfig
	}{plainConfig: new(plainConfig)}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if err := schema.Check(w.SchemaVersion, ConfigSchemaVersion); err != nil {
		return fmt.Errorf("core: config: %w", err)
	}
	*c = Config(*w.plainConfig)
	return nil
}

// CanonicalJSON returns the hash input of the configuration: the wire form
// without the schema_version stamp (two configs describing the same
// physics must hash equal across compatible wire revisions). The field
// order is Config's declaration order, so the bytes are deterministic for a
// given Config value.
func (c Config) CanonicalJSON() []byte {
	data, err := json.Marshal(plainConfig(c))
	if err != nil {
		// Config is plain ints/floats/bools; only a NaN or Inf float fails
		// to encode, and hashing one is a caller bug.
		panic(fmt.Sprintf("core: canonical config encoding failed: %v", err))
	}
	return data
}

// Hash returns the deterministic content hash of the configuration — the
// hex SHA-256 of CanonicalJSON. Two Config values hash equal exactly when
// every field is equal, so the hash is a safe key for result caches and
// deduplication: same hash, same physics, same trajectory.
func (c Config) Hash() string {
	sum := sha256.Sum256(c.CanonicalJSON())
	return hex.EncodeToString(sum[:])
}

package core

import (
	"encoding/json"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestConfigGoldenEncoding pins the wire bytes, the hash input and the hash
// of the default configuration and of one with every field set. The strings
// are the Config 1.0 encoder's output for the same values with the "nostack"
// key and the five autopilot tuning keys cut out and the stamp changed to
// 3.0, so encoding through Config's own tags changed nothing else; the
// hashes are the SHA-256 of the canonical strings, computed outside this
// package.
func TestConfigGoldenEncoding(t *testing.T) {
	full := Config{
		Nx: 6, Ny: 5, Layers: 2, T: 1.25, Ty: 0.75, TPrime: -0.3, Tperp: 0.5,
		U: 6.5, Mu: -0.125, Beta: 7.5, L: 60,
		WarmSweeps: 11, MeasSweeps: 23,
		ClusterK: 6, Delay: 16, PrePivot: true, SerialSpins: true,
		MeasureBoundaries: true, MeasureDynamics: true, StabilityCheckEvery: 3,
		Devices: 2, UseGraphs: true,
		Autopilot: true,
		Seed:      18446744073709551557,
	}
	if v := reflect.ValueOf(full); v.NumField() != 24 {
		t.Fatalf("Config has %d fields, want 24: extend the golden config", v.NumField())
	} else {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Fatalf("golden config leaves %s zero", v.Type().Field(i).Name)
			}
		}
	}
	for _, tc := range []struct {
		name            string
		cfg             Config
		canonical, hash string
	}{
		{"default", DefaultConfig(),
			`{"nx":4,"ny":4,"layers":1,"t":1,"ty":0,"tprime":0,"tperp":0,"u":4,"mu":0,"beta":2,"l":10,"warm":50,"meas":100,"k":10,"delay":32,"prepivot":true,"serial_spins":false,"measure_boundaries":true,"measure_dynamics":false,"stability_check_every":0,"devices":0,"graphs":false,"autopilot":false,"seed":1}`,
			"2f62797aec2eb027781da7af584f07dd22c8e524cae93579fdd60d3252732ebc"},
		{"full", full,
			`{"nx":6,"ny":5,"layers":2,"t":1.25,"ty":0.75,"tprime":-0.3,"tperp":0.5,"u":6.5,"mu":-0.125,"beta":7.5,"l":60,"warm":11,"meas":23,"k":6,"delay":16,"prepivot":true,"serial_spins":true,"measure_boundaries":true,"measure_dynamics":true,"stability_check_every":3,"devices":2,"graphs":true,"autopilot":true,"seed":18446744073709551557}`,
			"a1e59c8ba03186869958ddf5c9c3de722b79cc802c8e37b761722b3a394d774a"},
	} {
		if got := string(tc.cfg.CanonicalJSON()); got != tc.canonical {
			t.Errorf("%s: CanonicalJSON\n got %s\nwant %s", tc.name, got, tc.canonical)
		}
		if got := tc.cfg.Hash(); got != tc.hash {
			t.Errorf("%s: Hash = %s, want %s", tc.name, got, tc.hash)
		}
		wire := `{"schema_version":"3.0",` + tc.canonical[1:]
		data, err := json.Marshal(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != wire {
			t.Errorf("%s: MarshalJSON\n got %s\nwant %s", tc.name, data, wire)
		}
		var back Config
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != tc.cfg {
			t.Errorf("%s: wire round trip\n sent %+v\n got  %+v", tc.name, tc.cfg, back)
		}
	}
}

func TestConfigWireNamesAreCanonical(t *testing.T) {
	data, err := json.Marshal(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["schema_version"]; !ok {
		t.Fatalf("wire document missing schema_version: %s", data)
	}
	key := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	for k := range doc {
		if !key.MatchString(k) {
			t.Fatalf("wire key %q is not snake_case", k)
		}
	}
	// Spot-check the input-file-aligned names.
	for _, k := range []string{"nx", "beta", "l", "warm", "meas", "k", "prepivot", "seed"} {
		if _, ok := doc[k]; !ok {
			t.Fatalf("wire document missing canonical key %q: %s", k, data)
		}
	}
}

func TestConfigHashDeterministic(t *testing.T) {
	a, b := DefaultConfig(), DefaultConfig()
	if a.Hash() != b.Hash() {
		t.Fatal("equal configs must hash equal")
	}
	b.Seed++
	if a.Hash() == b.Hash() {
		t.Fatal("seed change must change the hash")
	}
	if len(a.Hash()) != 64 {
		t.Fatalf("hash %q is not hex sha256", a.Hash())
	}
}

func TestConfigUnmarshalVersioning(t *testing.T) {
	// Missing schema_version: accepted as current.
	var c Config
	if err := json.Unmarshal([]byte(`{"nx":3,"ny":5}`), &c); err != nil {
		t.Fatalf("versionless config rejected: %v", err)
	}
	if c.Nx != 3 || c.Ny != 5 {
		t.Fatalf("versionless config mis-decoded: %+v", c)
	}
	// A decode replaces the whole value: absent keys read as zero.
	if err := json.Unmarshal([]byte(`{"nx":2}`), &c); err != nil || c.Ny != 0 {
		t.Fatalf("decode kept a stale field: %+v (%v)", c, err)
	}
	// Same major: accepted even with a newer minor.
	if err := json.Unmarshal([]byte(`{"schema_version":"3.9","nx":2}`), &c); err != nil {
		t.Fatalf("minor skew rejected: %v", err)
	}
	// Another major — the 1.0 documents that could carry "nostack", the 2.0
	// ones that could carry the autopilot tuning keys, and the future — is
	// rejected.
	for _, v := range []string{"1.0", "2.0", "4.0"} {
		err := json.Unmarshal([]byte(`{"schema_version":"`+v+`","nx":2}`), &c)
		if err == nil || !strings.Contains(err.Error(), "incompatible") {
			t.Fatalf("major %s not rejected: %v", v, err)
		}
	}
	// Unknown fields are ignored (minor bumps are additive).
	if err := json.Unmarshal([]byte(`{"nx":4,"from_the_future":true}`), &c); err != nil {
		t.Fatalf("unknown field rejected: %v", err)
	}
}

// FuzzConfigJSON: decoding a hostile job document and validating it never
// panics, and a configuration that validates round-trips through its
// canonical encoding to the same content hash — the service's cache key.
func FuzzConfigJSON(f *testing.F) {
	def, err := json.Marshal(DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(def)
	f.Add([]byte(`{"nx":4,"ny":4,"layers":1,"beta":2,"l":10,"meas":1,"u":-0,"seed":18446744073709551615}`))
	f.Add([]byte(`{"schema_version":"9.0","nx":4}`))
	f.Add([]byte(`{"nx":1e3,"beta":1e308,"tprime":-1e-320}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Config
		if json.Unmarshal(data, &c) != nil || c.Validate() != nil {
			return
		}
		var back Config
		if err := json.Unmarshal(c.CanonicalJSON(), &back); err != nil {
			t.Fatalf("canonical encoding %s does not decode: %v", c.CanonicalJSON(), err)
		}
		if back.Hash() != c.Hash() {
			t.Fatalf("hash %s after the round trip, %s before (%s)", back.Hash(), c.Hash(), c.CanonicalJSON())
		}
	})
}

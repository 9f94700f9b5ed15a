package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"questgo/internal/obs"
)

// fill sets every field reachable from v to a distinct non-zero value, so a
// round trip that drops any of them shows under reflect.DeepEqual.
func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for _, key := range []string{"a", "b"} {
			e := reflect.New(v.Type().Elem()).Elem()
			fill(e, n)
			v.SetMapIndex(reflect.ValueOf(key), e)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(strings.Repeat("x", *n%7+1))
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// TestResultsWireCarriesEveryField: Results is its own wire document, so a
// field without a json tag, or one the codec drops, must fail here rather
// than vanish between a dqmcd shard and its client.
func TestResultsWireCarriesEveryField(t *testing.T) {
	rt := reflect.TypeOf(Results{})
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); f.IsExported() && f.Tag.Get("json") == "" {
			t.Errorf("Results.%s has no json tag", f.Name)
		}
	}

	var want Results
	n := 0
	fill(reflect.ValueOf(&want).Elem(), &n)
	want.Metrics.SchemaVersion = obs.MetricsSchemaVersion
	if want.GdTau == nil || want.LayerDensity == nil || want.Metrics.Autopilot == nil ||
		len(want.Metrics.Autopilot.Decisions) == 0 || len(want.Metrics.Devices) == 0 {
		t.Fatalf("fill left a section empty: %+v", want)
	}
	data, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	var got Results
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, &want) {
		t.Fatalf("results changed across the wire:\n got %+v\nwant %+v", got, want)
	}
	if !bytes.HasPrefix(data, []byte(`{"schema_version":"`+ResultsSchemaVersion+`","config":{`)) {
		t.Fatalf("document does not open with its stamp and config: %.80s", data)
	}

	// Another major is rejected; a missing stamp and a newer minor are read.
	stamp := `"schema_version":"` + ResultsSchemaVersion + `",`
	for _, tc := range []struct {
		with string
		ok   bool
	}{{`"schema_version":"1.0",`, false}, {`"schema_version":"3.0",`, false}, {``, true}, {`"schema_version":"2.7",`, true}} {
		doc := strings.Replace(string(data), stamp, tc.with, 1)
		if err := json.Unmarshal([]byte(doc), new(Results)); (err == nil) != tc.ok {
			t.Errorf("stamp %q: err = %v, want accepted = %v", tc.with, err, tc.ok)
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = 2, 2
	cfg.L = 8
	cfg.WarmSweeps, cfg.MeasSweeps = 3, 6
	res, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded["density"].(float64) != res.Density {
		t.Fatal("density not round-tripped")
	}
	if _, ok := decoded["profile_percent"]; ok {
		t.Fatal("profile_percent left the document in results 2.0")
	}
	if _, ok := decoded["metrics"].(map[string]interface{})["phase_percent"].(map[string]interface{}); !ok {
		t.Fatal("metrics.phase_percent missing")
	}
	if len(decoded["nk"].([]interface{})) != 4 {
		t.Fatal("nk array wrong length")
	}
}

func TestSaveJSON(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = 2, 2
	cfg.L = 8
	cfg.WarmSweeps, cfg.MeasSweeps = 2, 3
	res, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.json")
	if err := res.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var loaded struct {
		Density float64 `json:"density"`
	}
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.Density != res.Density {
		t.Fatal("file round trip lost density")
	}
}

package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

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
	if _, ok := decoded["profile_percent"].(map[string]interface{}); !ok {
		t.Fatal("profile percentages missing")
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

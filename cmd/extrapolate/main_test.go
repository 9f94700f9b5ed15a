package main

import (
	"math"
	"testing"

	"questgo"
)

// TestSliceCount: L = beta/dtau rounds, so beta = 2.3 at dtau = 0.1 runs 23
// slices (truncation gave 22, dtau = 0.1045), and a Trotter step that is not
// a positive finite number is an error, not a silent clamp.
func TestSliceCount(t *testing.T) {
	for _, tc := range []struct {
		beta, dtau float64
		want       int
	}{
		{2.3, 0.1, 23},
		{0.3, 0.1, 3},
		{2, 0.1, 20},
		{2, 0.25, 8},
		{2, 0, 0},
		{2, -0.1, 0},
		{2, math.NaN(), 0},
		{2, math.Inf(1), 0},
	} {
		got, err := sliceCount(tc.beta, tc.dtau)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("sliceCount(%g, %g) = %d, want an error", tc.beta, tc.dtau, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("sliceCount(%g, %g) = %d, %v, want %d", tc.beta, tc.dtau, got, err, tc.want)
		}
	}
}

// TestPoints: the scanned parameter is set at every point, L follows beta
// unless l itself is scanned, and nx sets both lattice dimensions.
func TestPoints(t *testing.T) {
	base := questgo.DefaultConfig()
	base.Beta = 2
	cfgs, err := points(base, "beta", []float64{1.2, 2.3}, 0.1)
	if err != nil || cfgs[0].Beta != 1.2 || cfgs[0].L != 12 || cfgs[1].L != 23 {
		t.Fatalf("-scan beta: %+v, %v", cfgs, err)
	}
	cfgs, err = points(base, "l", []float64{8, 16}, 0)
	if err != nil || cfgs[0].L != 8 || cfgs[1].L != 16 || cfgs[1].Beta != 2 {
		t.Fatalf("-scan l (dtau unused): %+v, %v", cfgs, err)
	}
	cfgs, err = points(base, "nx", []float64{6}, 0.25)
	if err != nil || cfgs[0].Nx != 6 || cfgs[0].Ny != 6 || cfgs[0].L != 8 {
		t.Fatalf("-scan nx: %+v, %v", cfgs, err)
	}
	if _, err := points(base, "u", []float64{4}, -0.1); err == nil {
		t.Fatal("-dtau -0.1 accepted")
	}
	if _, err := points(base, "k", []float64{4}, 0.1); err == nil {
		t.Fatal("unknown parameter accepted")
	}
}

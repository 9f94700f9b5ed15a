package core

import (
	"testing"
)

func TestDeviceConfigValidate(t *testing.T) {
	good := DefaultConfig()
	good.Devices = 2
	good.UseGraphs = true
	if err := good.Validate(); err != nil {
		t.Fatalf("device config invalid: %v", err)
	}
	bad := good
	bad.Devices = -1
	if bad.Validate() == nil {
		t.Fatal("Devices=-1 should be invalid")
	}
	bad = good
	bad.Devices = 0
	if bad.Validate() == nil {
		t.Fatal("UseGraphs without a device should be invalid")
	}
	// The device backend never stratifies, so Algorithm 2 is as valid there
	// as on the host.
	qrp := good
	qrp.PrePivot = false
	if err := qrp.Validate(); err != nil {
		t.Fatalf("device config without PrePivot invalid: %v", err)
	}
}

// TestDeviceRunMatchesAcrossShardingAndGraphs runs the same tiny
// simulation over the device backend with 1 and 2 simulated devices,
// graphs off and on, and over the host backend: the Markov chain — and
// therefore every observable — must be identical, and the per-device
// telemetry must be populated.
func TestDeviceRunMatchesAcrossShardingAndGraphs(t *testing.T) {
	base := DefaultConfig()
	base.Nx, base.Ny = 3, 3
	base.L, base.Beta = 8, 1
	base.ClusterK = 4
	base.WarmSweeps, base.MeasSweeps = 4, 8
	base.Seed = 9

	run := func(devices int, graphs bool) *Results {
		cfg := base
		cfg.Devices = devices
		cfg.UseGraphs = graphs
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}

	ref := run(1, false)
	if len(ref.Metrics.Devices) != 1 {
		t.Fatalf("expected 1 device metrics entry, got %d", len(ref.Metrics.Devices))
	}
	if host := run(0, false); host.Density != ref.Density || host.DoubleOcc != ref.DoubleOcc ||
		host.Kinetic != ref.Kinetic || host.Acceptance != ref.Acceptance || len(host.Metrics.Devices) != 0 {
		t.Fatal("host-backend run diverged from the single-device run")
	}
	for _, tc := range []struct {
		devices int
		graphs  bool
	}{{1, true}, {2, false}, {2, true}} {
		res := run(tc.devices, tc.graphs)
		if res.Density != ref.Density || res.DoubleOcc != ref.DoubleOcc || res.AvgSign != ref.AvgSign {
			t.Fatalf("devices=%d graphs=%v: observables diverged from single-device ungraphed run",
				tc.devices, tc.graphs)
		}
		if len(res.Metrics.Devices) != tc.devices {
			t.Fatalf("devices=%d: got %d metrics entries", tc.devices, len(res.Metrics.Devices))
		}
		for _, dm := range res.Metrics.Devices {
			if dm.ClockMS <= 0 || dm.Flops <= 0 || dm.Kernels <= 0 || dm.MaxAllocBytes <= 0 {
				t.Fatalf("devices=%d graphs=%v: empty telemetry %+v", tc.devices, tc.graphs, dm)
			}
		}
		if tc.graphs {
			ungraphed := run(tc.devices, false)
			if res.Metrics.Devices[0].LaunchOverheadMS >= ungraphed.Metrics.Devices[0].LaunchOverheadMS {
				t.Fatalf("devices=%d: graphs did not reduce launch overhead (%v >= %v ms)",
					tc.devices, res.Metrics.Devices[0].LaunchOverheadMS, ungraphed.Metrics.Devices[0].LaunchOverheadMS)
			}
		}
	}
}

// TestDeviceRunWithoutPrePivot: a device run under Algorithm 2 (QRP
// stratification, on the host like every stratification) is bitwise the host
// run of the same configuration.
func TestDeviceRunWithoutPrePivot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = 3, 3
	cfg.L, cfg.Beta = 8, 1
	cfg.ClusterK = 4
	cfg.WarmSweeps, cfg.MeasSweeps = 4, 8
	cfg.Seed = 9
	cfg.PrePivot = false
	host, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Devices = 1
	dev, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Density != host.Density || dev.DoubleOcc != host.DoubleOcc || dev.Kinetic != host.Kinetic ||
		dev.SAF != host.SAF || dev.AvgSign != host.AvgSign || dev.Acceptance != host.Acceptance {
		t.Fatalf("device run without PrePivot diverged from the host run:\n dev  %+v\n host %+v", dev, host)
	}
}

// TestDeviceResumeReproducesRun checks that the checkpoint path restores
// the device engine: an interrupted-and-resumed device run must land on
// the same observables as an uninterrupted one (the same property the CPU
// engine pins in TestResumeReproducesUninterruptedRun).
func TestDeviceResumeReproducesRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = 3, 3
	cfg.L, cfg.Beta = 8, 1
	cfg.ClusterK = 4
	cfg.Devices = 2
	cfg.UseGraphs = true
	cfg.Seed = 17

	ref := cfg
	ref.WarmSweeps, ref.MeasSweeps = 3, 6
	full, err := runOnce(ref)
	if err != nil {
		t.Fatal(err)
	}

	first := cfg
	first.WarmSweeps, first.MeasSweeps = 2, 1 // 3 total sweeps, then stop
	sim1, err := New(first)
	if err != nil {
		t.Fatal(err)
	}
	sim1.Run()
	ck := sim1.Checkpoint()
	ck.Config.WarmSweeps, ck.Config.MeasSweeps = 0, 6
	resumed, err := Resume(ck)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.group == nil || resumed.group.Size() != 2 {
		t.Fatal("resume did not rebuild the device group")
	}
	res := resumed.Run()
	if res.DoubleOcc != full.DoubleOcc || res.Kinetic != full.Kinetic {
		t.Fatalf("resumed device run diverged: docc %v vs %v", res.DoubleOcc, full.DoubleOcc)
	}
}

package service

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"questgo/internal/core"
)

// modeDoc is the canonical JSON of a Results document with the execution
// keys of its config (serial_spins, devices, graphs — trajectory-invariant
// by contract) reset, and its metrics either dropped or stripped of the
// timing fields obs.Metrics declares nondeterministic.
func modeDoc(t *testing.T, r *core.Results, keepMetrics bool) string {
	t.Helper()
	cp := *r
	cp.Config.SerialSpins, cp.Config.Devices, cp.Config.UseGraphs = false, 0, false
	cp.Metrics = nil
	if keepMetrics && r.Metrics != nil {
		m := r.Metrics.WithoutTimings()
		cp.Metrics = &m
	}
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	return string(b)
}

// docDiff shows where two canonical documents first part: the common key
// path's tail and the two readings after it.
func docDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(i-60, 0)
	return fmt.Sprintf("...%s\n got ...%.80s\nwant ...%.80s", got[from:i], got[i:], want[i:])
}

// TestResultsBitwiseAcrossModes: one Results document per configuration,
// whatever executes it. Within an engine (the host kernels; two simulated
// devices with command graphs) the whole document minus its timings is
// byte-identical across GOMAXPROCS 1/2/4 and forked or serial spins. Between
// core.Run and a one-shard dqmcd job everything but the metrics is, and
// across the engines everything but the metrics and max_wrap_drift: the
// device applies V G V^-1 as one combined scaling kernel (Algorithm 7), which
// rounds the wrapped G differently from the host's two passes, so the drift
// of the wrapped copy against the stratified refresh is engine-specific while
// every refresh, decision and observable is not. The config sits off half
// filling, where the two spin sectors' stability samples differ and their
// arrival order would show; it measures dynamics and samples the
// stack-vs-rebuild residual, so every section of the document is populated.
// The residual check runs beside the sweep: at cadence 1 it is joined at the
// next boundary, at cadence 3 (NC = 4) it stays in flight across an
// unprobed boundary and across the sweep's end, with the autopilot off and
// on, so the controller's inputs and decisions are held too.
func TestResultsBitwiseAcrossModes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, v := range []struct {
		every     int
		autopilot bool
	}{{1, false}, {3, false}, {3, true}} {
		cfg := core.DefaultConfig()
		cfg.Mu, cfg.Beta, cfg.L, cfg.ClusterK = 0.5, 4, 40, 10
		cfg.WarmSweeps, cfg.MeasSweeps = 2, 4
		cfg.MeasureDynamics, cfg.StabilityCheckEvery, cfg.Autopilot = true, v.every, v.autopilot
		cfg.Seed = 13
		variant := fmt.Sprintf("stability every %d, autopilot=%v", v.every, v.autopilot)
		resultsBitwiseAcrossModes(t, variant, cfg)
	}
}

func resultsBitwiseAcrossModes(t *testing.T, variant string, cfg core.Config) {
	t.Helper()
	var first []*core.Results // per engine, in its first mode
	for _, e := range []struct {
		name    string
		devices int
		graphs  bool
	}{{"host", 0, false}, {"2 devices + graphs", 2, true}} {
		var whole, wholeFrom string
		for _, procs := range []int{1, 2, 4} {
			for _, serial := range []bool{false, true} {
				mode := fmt.Sprintf("%s: %s, GOMAXPROCS=%d, serial spins=%v", variant, e.name, procs, serial)
				c := cfg
				c.Devices, c.UseGraphs, c.SerialSpins = e.devices, e.graphs, serial
				runtime.GOMAXPROCS(procs)
				res, err := core.Run(context.Background(), c)
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				if doc := modeDoc(t, res, true); whole == "" {
					if res.Metrics.Stability.StratResidualSamples == 0 {
						t.Errorf("%s: no residual samples; the check in flight went untested", mode)
					}
					whole, wholeFrom = doc, mode
					first = append(first, res)
				} else if doc != whole {
					t.Errorf("%s: document minus timings differs from %s:\n%s", mode, wholeFrom, docDiff(doc, whole))
				}
			}
		}
	}
	host, dev := *first[0], *first[1]
	host.MaxWrapDrift, dev.MaxWrapDrift = 0, 0
	if a, b := modeDoc(t, &dev, false), modeDoc(t, &host, false); a != b {
		t.Errorf("%s: device engine: document minus metrics and wrap drift differs from the host's:\n%s", variant, docDiff(a, b))
	}

	_, cl := newTestServer(t, Options{Workers: 1})
	st, err := cl.Submit(context.Background(), JobRequest{Config: cfg})
	if err != nil {
		t.Fatalf("%s: submit: %v", variant, err)
	}
	res, err := cl.WaitResult(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("%s: wait: %v", variant, err)
	}
	if a, b := modeDoc(t, res.Results, false), modeDoc(t, first[0], false); a != b {
		t.Errorf("%s: one-shard dqmcd job: document minus metrics differs from core.Run's:\n%s", variant, docDiff(a, b))
	}
}

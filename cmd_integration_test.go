package questgo

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"questgo/internal/benchutil"
)

// Integration tests: every command-line tool must run end to end on a tiny
// workload and print its expected headline. These use `go run`, so they
// also catch build breaks in the mains.

func runTool(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v failed: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCmdDQMC(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "out.json")
	ckptPath := filepath.Join(dir, "run.ckpt")
	out := runTool(t, "./cmd/dqmc", "-nx", "2", "-ny", "2", "-l", "8",
		"-warm", "3", "-meas", "6", "-json", jsonPath, "-checkpoint", ckptPath)
	// Table I: the paper's five row labels in the paper's order.
	at := 0
	for _, want := range []string{"density", "Table I profile", "Delayed rank-1 update", "Stratification", "Clustering", "Wrapping", "Physical meas."} {
		i := strings.Index(out[at:], want)
		if i < 0 {
			t.Fatalf("dqmc output missing %q after byte %d:\n%s", want, at, out)
		}
		at += i
	}
	// Resume from the checkpoint.
	out = runTool(t, "./cmd/dqmc", "-resume", ckptPath, "-warm", "0", "-meas", "3")
	if !strings.Contains(out, "density") {
		t.Fatalf("resumed dqmc output:\n%s", out)
	}
	// A flag's value is never a sentinel: the attractive model and a bare -mu.
	out = runTool(t, "./cmd/dqmc", "-u", "-4", "-mu", "0.3", "-nx", "2", "-ny", "2", "-l", "8",
		"-warm", "2", "-meas", "3")
	if !strings.Contains(out, "U=-4 mu=0.3") {
		t.Fatalf("dqmc -u -4 -mu 0.3 banner:\n%s", out)
	}
}

// TestCmdFigures draws every figure cmd/figures knows on a tiny workload and
// looks for the headline of the table it must print.
func TestCmdFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	jsonPath := filepath.Join(t.TempDir(), "BENCH_gemm.json")
	physics := []string{"-sizes", "4", "-beta", "1", "-l", "8", "-warm", "2", "-meas", "4"}
	for _, tc := range []struct {
		fig  string
		args []string
		want []string
	}{
		{"1", []string{"-sizes", "32,48", "-reps", "1", "-json", jsonPath}, []string{"Figure 1", "DGEQP3"}},
		{"2", []string{"-nx", "4", "-l", "20", "-evals", "4", "-us", "4"}, []string{"Figure 2", "median"}},
		{"3", []string{"-sizes", "16", "-l", "20", "-reps", "1"}, []string{"Figure 3", "Figure 4"}},
		{"5", physics, []string{"Figure 5"}},
		{"6", physics, []string{"Figure 6"}},
		{"7", physics, []string{"Figure 7"}},
		{"8", []string{"-sizes", "4,16", "-l", "8", "-warm", "1", "-meas", "2"}, []string{"Figure 8", "Table I", "nominal"}},
		{"9", []string{"-sizes", "16", "-k", "4"}, []string{"Figure 9", "cluster"}},
		{"10", []string{"-sizes", "16", "-l", "8", "-k", "4"}, []string{"Figure 10", "hybrid"}},
	} {
		t.Run("fig="+tc.fig, func(t *testing.T) {
			out := runTool(t, append([]string{"./cmd/figures", "-fig=" + tc.fig}, tc.args...)...)
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Fatalf("figures -fig=%s output missing %q:\n%s", tc.fig, want, out)
				}
			}
		})
	}
	// -fig=1 -json wrote one schema-checked record per kernel and size.
	recs, err := benchutil.ReadRecords(jsonPath)
	if err != nil {
		t.Fatalf("read records: %v", err)
	}
	series := map[string]int{}
	for _, r := range recs {
		if r.Bench != "kernels" || r.Ms <= 0 {
			t.Fatalf("unexpected record %+v", r)
		}
		series[r.Name]++
	}
	for _, name := range []string{"gemm", "geqrf", "geqp3", "geqp3_blocked"} {
		if series[name] != 2 {
			t.Fatalf("series %q has %d records, want one per size (2): %v", name, series[name], series)
		}
	}
}

func TestCmdSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	out := runTool(t, "./cmd/sweep", "-scan", "u", "-values", "0,4",
		"-nx", "2", "-beta", "1", "-dtau", "0.25", "-warm", "2", "-meas", "4")
	if !strings.Contains(out, "S(pi,pi)") {
		t.Fatalf("sweep output:\n%s", out)
	}
}

func TestCmdExtrapolate(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	out := runTool(t, "./cmd/extrapolate", "-mode", "trotter", "-obs", "docc",
		"-ls", "4,8", "-nx", "2", "-beta", "1", "-warm", "5", "-meas", "10")
	if !strings.Contains(out, "extrapolation") {
		t.Fatalf("extrapolate output:\n%s", out)
	}
}

// TestCmdDQMCD boots the daemon on a random port and drives one job
// through the HTTP API with the Go client.
func TestCmdDQMCD(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	// The daemon runs until signaled; drive the same server surface
	// in-process instead of managing a child process lifetime here
	// (cmd/dqmcd is a flag-parsing shim over NewServer).
	svc, err := NewServer(ServerOptions{Workers: 1})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer func() { _ = svc.Close() }()
	hs := httptest.NewServer(svc)
	defer hs.Close()
	cl := NewServiceClient(hs.URL)

	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.L = 2, 2, 8
	cfg.WarmSweeps, cfg.MeasSweeps = 3, 6
	st, err := cl.Submit(context.Background(), JobRequest{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	res, err := cl.WaitResult(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if res.Results == nil || res.Results.Density == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.ConfigHash != cfg.Hash() {
		t.Fatalf("hash mismatch: %s vs %s", res.ConfigHash, cfg.Hash())
	}
}

func TestExamplesBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	// Examples run full simulations; building them catches interface
	// drift without the runtime cost.
	out, err := exec.Command("go", "build", "./examples/...").CombinedOutput()
	if err != nil {
		t.Fatalf("examples failed to build: %v\n%s", err, out)
	}
}

// TestDocsNameExistingCommands: every cmd/<name> the docs, reproduce.sh and
// the verify skill mention is a directory that exists. CHANGES.md, ISSUE.md
// and ROADMAP.md from "## Recent" on are history and may name what is gone.
func TestDocsNameExistingCommands(t *testing.T) {
	files, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "reproduce.sh", ".claude/skills/verify/SKILL.md")
	mention := regexp.MustCompile(`\bcmd/([a-z]+)`)
	for _, file := range files {
		if file == "CHANGES.md" || file == "ISSUE.md" {
			continue
		}
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if file == "ROADMAP.md" {
			text, _, _ = bytes.Cut(text, []byte("\n## Recent\n"))
		}
		for _, m := range mention.FindAllSubmatch(text, -1) {
			if st, err := os.Stat(filepath.Join("cmd", string(m[1]))); err != nil || !st.IsDir() {
				t.Errorf("%s mentions %s, which is not a directory", file, m[0])
			}
		}
	}
}

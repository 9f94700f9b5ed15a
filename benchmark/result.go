package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"questgo/internal/benchutil"
)

// benchSpec is BENCHMARK.json: the registry every emitted metric is checked
// against, and the source of units, directions and bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// unit looks a metric up in either list.
func (s *benchSpec) unit(name string) (string, bool) {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit, true
			}
		}
	}
	return "", false
}

// metric is one reported number; N is the count of samples behind it (0 for
// a metric that does not apply to the workload).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// environment pins a run document to the machine and commit it came from.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	GitRev     string `json:"git_rev"`
}

func currentEnvironment() environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		GitRev:     benchutil.GitRev(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// result is one run of one workload: the document appended to -out, and
// the source of the last line the driver reads.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Scale     float64           `json:"scale"`
	Env       environment       `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []check           `json:"checks"`
	Metrics   map[string]metric `json:"metrics"`

	spec *benchSpec
}

func newResult(spec *benchSpec, o options) *result {
	return &result{
		Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Scale: o.scale,
		Env: currentEnvironment(), Correct: true,
		Metrics: map[string]metric{}, spec: spec,
	}
}

// set records a metric under a name BENCHMARK.json declares; any other name
// is a bug in this package, not an input error.
func (r *result) set(name string, value float64, n int) {
	unit, ok := r.spec.unit(name)
	if !ok {
		panic("benchmark: metric " + name + " is not declared in BENCHMARK.json")
	}
	r.Metrics[name] = metric{Value: value, Unit: unit, N: n}
}

// check records one correctness check.
func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.Correct = false
	}
}

func (r *result) failedChecks() int {
	n := 0
	for _, c := range r.Checks {
		if !c.OK {
			n++
		}
	}
	return n
}

// print lists every metric by name with its unit and sample count, then
// the checks.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s seed=%d trace=%v seconds=%g GOMAXPROCS=%d nproc=%d %s %s rev=%s\n",
		r.Workload, r.Seed, r.Trace, r.Seconds, r.Env.GOMAXPROCS, r.Env.NProc, r.Env.CPU, r.Env.Go, r.Env.GitRev)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g %-8s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-28s %s\n", verdict, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
}

// appendDoc appends the run document as one JSON line.
func (r *result) appendDoc(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return benchutil.AppendJSONLine(path, r)
}

// lastLine renders the driver's result object: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one. A per-layer metric
// that does not apply to this workload reads 0; a missing end-to-end metric
// is an error.
func (r *result) lastLine() (string, error) {
	type driverMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := r.spec.EndToEnd
	if r.Trace {
		list = r.spec.PerLayer
	}
	out := make(map[string]driverMetric, len(list))
	for _, ms := range list {
		m, ok := r.Metrics[ms.Name]
		if !ok && !r.Trace {
			return "", fmt.Errorf("%s: end-to-end metric %s was not measured", r.Workload, ms.Name)
		}
		out[ms.Name] = driverMetric{Value: m.Value, Unit: ms.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, out})
	return string(line), err
}

// readDocs loads a file of run documents (JSON lines).
func readDocs(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []result
	dec := json.NewDecoder(f)
	for {
		var r result
		if err := dec.Decode(&r); err == io.EOF {
			return docs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, r)
	}
}

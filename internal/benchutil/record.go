package benchutil

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"questgo/internal/schema"
)

// RecordSchemaVersion is the wire version of the benchmark record lines.
// Major bumps rename/retype/remove fields; minor bumps only add.
const RecordSchemaVersion = "1.0"

// Record is the machine-readable bench result of the committed series,
// cmd/figures -fig=1 -json (BENCH_gemm.json). One record is one measured
// point, appended as a
// JSON line so results from different commits diff with the same tooling.
// Field names are a compatibility surface; DecodeRecord and ReadRecords are
// the read path that enforces it.
type Record struct {
	SchemaVersion string `json:"schema_version,omitempty"`
	// Bench is the series family ("kernels"); Name the measured
	// series/kernel within it ("gemm", "geqrf", ...).
	Bench string `json:"bench"`
	Name  string `json:"name"`
	// N is the primary problem size (matrix dimension or site count);
	// Params carries any further size/shape parameters by name (k, L, nd).
	N      int            `json:"n,omitempty"`
	Params map[string]int `json:"params,omitempty"`
	// FloatParams carries named real-valued results that ride alongside the
	// primary Ms/GFlops measurement (companion rates, speedup ratios) —
	// everything a series needs so no side-channel schema is required.
	FloatParams map[string]float64 `json:"fparams,omitempty"`
	// Ms is the measured milliseconds per operation; GFlops the derived
	// throughput when the harness knows the flop count.
	Ms     float64 `json:"ms"`
	GFlops float64 `json:"gflops,omitempty"`
	// GitRev pins the measurement to a commit; UnixTime to a moment.
	GitRev   string `json:"git_rev,omitempty"`
	UnixTime int64  `json:"unix_time"`
}

// NewRecord builds a record for one measured point, stamping the commit and
// time. secs is seconds per operation; flops the nominal flop count (0 when
// throughput is not meaningful for the series).
func NewRecord(bench, name string, n int, secs, flops float64) Record {
	return Record{
		SchemaVersion: RecordSchemaVersion,
		Bench:         bench,
		Name:          name,
		N:             n,
		Ms:            secs * 1e3,
		GFlops:        GFlops(flops, secs),
		GitRev:        GitRev(),
		UnixTime:      time.Now().Unix(),
	}
}

// DecodeRecord parses one JSON record line, rejecting incompatible schema
// majors (lines without a schema_version predate versioning and are read as
// current).
func DecodeRecord(data []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return Record{}, err
	}
	if err := schema.Check(r.SchemaVersion, RecordSchemaVersion); err != nil {
		return Record{}, fmt.Errorf("benchutil: record: %w", err)
	}
	return r, nil
}

// ReadRecords loads a BENCH_*.json JSON-lines series, skipping blank lines
// and failing on the first malformed or schema-incompatible record.
func ReadRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		r, err := DecodeRecord([]byte(text))
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// WithParam returns a copy of the record with one named size parameter set.
func (r Record) WithParam(key string, v int) Record {
	p := make(map[string]int, len(r.Params)+1)
	for k, old := range r.Params {
		p[k] = old
	}
	p[key] = v
	r.Params = p
	return r
}

// Append writes the record as one JSON line to path.
func (r Record) Append(path string) error { return AppendJSONLine(path, r) }

var (
	gitRevOnce sync.Once
	gitRev     string
)

// GitRev returns the short hash of the repository HEAD, with "-dirty"
// appended when the working tree differs from it (a measurement of
// uncommitted code must not read as its parent's), or "" when not in a git
// checkout. Cached after the first call.
func GitRev() string {
	gitRevOnce.Do(func() { gitRev = gitRevIn("") })
	return gitRev
}

// gitRevIn is GitRev for the checkout at dir ("" = the working directory).
func gitRevIn(dir string) string {
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	rev, err := git("rev-parse", "--short", "HEAD")
	if err != nil {
		return ""
	}
	if st, err := git("status", "--porcelain"); err == nil && st != "" {
		rev += "-dirty"
	}
	return rev
}

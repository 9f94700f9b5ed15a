// Package benchutil contains the shared machinery of the figure-regeneration
// harness: flop counting for the kernels and the Green's function
// evaluation, repeat-timing helpers, and plain-text table output matching
// the rows/series of the paper's figures.
package benchutil

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// TimeIt runs fn at least minReps times and at least minDur total, and
// returns the average seconds per call. It is the measurement loop used by
// all the figure harnesses (the paper reports averages over a full
// simulation; we average over repeated calls).
func TimeIt(minReps int, minDur time.Duration, fn func()) float64 {
	if minReps < 1 {
		minReps = 1
	}
	var (
		reps  int
		total time.Duration
	)
	for reps < minReps || total < minDur {
		start := time.Now()
		fn()
		total += time.Since(start)
		reps++
		if reps > 1_000_000 {
			break
		}
	}
	return total.Seconds() / float64(reps)
}

// GFlops converts a flop count and seconds-per-call into GFlop/s.
func GFlops(flops, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return flops / secs / 1e9
}

// GemmFlops is the nominal 2n^3 cost of a square DGEMM.
func GemmFlops(n int) float64 { return 2 * float64(n) * float64(n) * float64(n) }

// QRFlops is the nominal (4/3)n^3 cost of a square Householder QR.
func QRFlops(n int) float64 { return 4.0 / 3 * float64(n) * float64(n) * float64(n) }

// FormQFlops is the nominal (4/3)n^3 cost of forming the full Q.
func FormQFlops(n int) float64 { return 4.0 / 3 * float64(n) * float64(n) * float64(n) }

// GreensFlops estimates the arithmetic of one stratified Green's function
// evaluation over nc clusters of dimension n: per cluster one GEMM
// (C = B*Q), one QR, one Q formation, and one triangular-matrix GEMM for
// the T update, plus the final LU solve with n right-hand sides.
func GreensFlops(n, nc int) float64 {
	per := GemmFlops(n) + QRFlops(n) + FormQFlops(n) + GemmFlops(n)
	lu := 2.0 / 3 * float64(n) * float64(n) * float64(n) // LUFactor
	solve := 2 * float64(n) * float64(n) * float64(n)    // two triangular solves, n RHS
	return float64(nc)*per + lu + solve
}

// ClusterFlops is the arithmetic of building one cluster of k matrices:
// k-1 GEMMs plus k row scalings.
func ClusterFlops(n, k int) float64 {
	return float64(k-1)*GemmFlops(n) + float64(k)*float64(n)*float64(n)
}

// Table accumulates aligned columns for terminal output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v unless already strings.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// AppendJSONLine marshals v and appends it as one line to path (JSON-lines
// format), creating the file if needed. The bench harnesses use it to
// accumulate machine-readable results (BENCH_*.json) across runs so
// regressions are diffable.
func AppendJSONLine(path string, v interface{}) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(append(data, '\n'))
	return err
}

// ParseSizes parses a comma-separated list of integers ("256,400,576").
func ParseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("benchutil: bad size %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchutil: empty size list")
	}
	return out, nil
}

package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// Verdicts of one (metric, workload) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// absoluteFloor: a set-up that is already a few hundred microseconds moves
// by more than its relative bound from noise alone, so a regression there
// must also exceed this many seconds.
var absoluteFloor = map[string]float64{"setup_s": 0.005}

// judge applies one end-to-end metric's bound to the runs of a parent (a)
// and a change (b). The change regressed when its median is worse than the
// parent's by more than the bound. Where either side's own quartile spread
// is wider than the bound the difference cannot be told from noise: the
// pair is unresolved, unless every run of the change reads better than
// every run of the parent.
func judge(m metricSpec, a, b []float64) (verdict string, worse float64) {
	sign := 1.0 // positive = b is worse
	if m.Better == "higher" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	worse = sign * (mb - ma) / math.Abs(ma)
	if quartileSpread(a) > m.Bound || quartileSpread(b) > m.Bound {
		allBetter := slices.Max(b) < slices.Min(a)
		if m.Better == "higher" {
			allBetter = slices.Min(b) > slices.Max(a)
		}
		if allBetter {
			return verdictOK, worse
		}
		return verdictUnresolved, worse
	}
	if worse > m.Bound && math.Abs(mb-ma) > absoluteFloor[m.Name] {
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

// untracedValues collects metric -> values from the untraced runs of one
// workload: end-to-end metrics are measured with tracing off.
func untracedValues(docs []result, workload string) map[string][]float64 {
	vals := map[string][]float64{}
	for _, d := range docs {
		if d.Workload != workload || d.Trace {
			continue
		}
		for name, m := range d.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
	}
	return vals
}

// compareFiles prints one verdict per (end-to-end metric, workload) pair
// and fails when any pair regressed.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	docsA, err := readDocs(pathA)
	if err != nil {
		return err
	}
	docsB, err := readDocs(pathB)
	if err != nil {
		return err
	}
	counts := map[string]int{}
	fmt.Fprintf(w, "%-14s %-14s %12s %12s %8s %7s %5s  %s\n", "workload", "metric", "A median", "B median", "worse", "bound", "runs", "verdict")
	for _, wl := range spec.Workloads {
		a, b := untracedValues(docsA, wl.Name), untracedValues(docsB, wl.Name)
		for _, m := range spec.EndToEnd {
			if len(a[m.Name]) == 0 || len(b[m.Name]) == 0 {
				continue
			}
			verdict, worse := judge(m, a[m.Name], b[m.Name])
			counts[verdict]++
			fmt.Fprintf(w, "%-14s %-14s %12.6g %12.6g %+7.2f%% %6.1f%% %2d/%-2d  %s\n", wl.Name, m.Name,
				median(a[m.Name]), median(b[m.Name]), 100*worse, 100*m.Bound, len(a[m.Name]), len(b[m.Name]), verdict)
		}
	}
	fmt.Fprintf(w, "%d ok, %d regressed, %d unresolved\n", counts[verdictOK], counts[verdictRegressed], counts[verdictUnresolved])
	if counts[verdictOK]+counts[verdictRegressed]+counts[verdictUnresolved] == 0 {
		return fmt.Errorf("no untraced run of a common workload in %s and %s", pathA, pathB)
	}
	if n := counts[verdictRegressed]; n > 0 {
		return fmt.Errorf("%d (metric, workload) pairs regressed", n)
	}
	return nil
}

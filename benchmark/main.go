// Command benchmark is the one end-to-end + per-layer benchmark of the DQMC
// stack: five fixed workloads, the end-to-end metrics a user of the system
// waits for, a traced pass that attributes them to the layers underneath,
// and a physics gate on every run. BENCHMARK.json at the repository root is
// the registry of workload and metric names, units, directions and bounds;
// README.md in this directory explains each choice.
//
// Usage (from the repository root):
//
//	go run ./benchmark                      # all five workloads, untraced
//	go run ./benchmark -trace 1             # traced pass: per-layer metrics + trace files
//	go run ./benchmark -workload small_hot -seed 3 -seconds 15 -trace 0
//	go run ./benchmark -compare A.jsonl B.jsonl
//	go run ./benchmark -mkref               # rewrite benchmark/reference.json
//
// A run with -workload measures that workload in this process and prints,
// as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics. Without -workload the command
// re-executes itself once per workload, so each starts from a fresh heap.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
)

// outDir receives everything a run leaves behind: run documents, trace
// files, the service's shard checkpoints. It is git-ignored.
const outDir = "benchmark/out"

// procs is the GOMAXPROCS every workload runs at: the spin-parallel sweep
// forks two ways and the service runs two workers, so the numbers mean the
// same on any box with at least two cores.
const procs = 2

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64
	out      string
}

func main() {
	var (
		o       options
		trace   = flag.Int("trace", 0, "1 = traced pass: per-layer metrics and "+outDir+"/trace-<workload>.jsonl")
		compare = flag.Bool("compare", false, "compare two run files: -compare A.jsonl B.jsonl")
		mkref   = flag.Bool("mkref", false, "rewrite "+referencePath+" from seeds other than -seed")
	)
	flag.StringVar(&o.workload, "workload", "", "run this one workload in-process (default: all, one child process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "derives every RNG seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "how long to measure (default: run_seconds of BENCHMARK.json)")
	flag.Float64Var(&o.scale, "scale", 1, "scale round sizes, repetitions and -seconds (smoke runs; checks that need the full size will fail)")
	flag.StringVar(&o.out, "out", outDir+"/runs.jsonl", "append each run's JSON document to this file")
	flag.Parse()
	o.trace = *trace != 0

	if err := run(o, *compare, *mkref, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, compare, mkref bool, args []string) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	o.seconds *= o.scale
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two run files")
		}
		return compareFiles(os.Stdout, spec, args[0], args[1])
	case mkref:
		runtime.GOMAXPROCS(procs)
		return makeReference(o.seed)
	case o.workload == "":
		return runAll(spec)
	}
	runtime.GOMAXPROCS(procs)
	ref, err := loadReference(referencePath)
	if err != nil {
		return err
	}
	res, err := runWorkload(spec, ref, o)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if err := res.appendDoc(o.out); err != nil {
		return err
	}
	line, err := res.lastLine()
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !res.Correct {
		return fmt.Errorf("%s: %d correctness check(s) failed", o.workload, res.failedChecks())
	}
	return nil
}

// runAll re-executes this binary once per workload with the same flags plus
// -workload. GOMAXPROCS goes through the environment so that it is in force
// before the child's runtime starts.
func runAll(spec *benchSpec) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range spec.Workloads {
		fmt.Printf("== %s: %s\n", w.Name, w.Why)
		cmd := exec.Command(self, append([]string{"-workload", w.Name}, os.Args[1:]...)...)
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed", failed, len(spec.Workloads))
	}
	return nil
}

package profile

import (
	"fmt"
	"os"
	"runtime/pprof"
	"runtime/trace"
)

// The hooks below wire the standard Go profilers into the command-line
// tools (-cpuprofile / -trace flags): obs answers "which DQMC phase is
// slow", these answer "which function inside it".

// StartCPUProfile begins a CPU profile written to path and returns the
// function that stops it and closes the file.
func StartCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("profile: start cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// StartTrace begins a runtime execution trace written to path and returns
// the function that stops it and closes the file.
func StartTrace(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := trace.Start(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("profile: start trace: %w", err)
	}
	return func() {
		trace.Stop()
		f.Close()
	}, nil
}

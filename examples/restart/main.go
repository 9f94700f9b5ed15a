// Restart: long DQMC runs (the paper's production jobs take 36 hours)
// need checkpoint files. This example stops a simulation in the middle of
// its measurement sweeps, writes a restart file, "crashes", resumes from
// disk and finishes — and verifies that the resumed run gives exactly the
// Results the uninterrupted run would have produced.
//
// Run with:
//
//	go run ./examples/restart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"

	"questgo"
)

func main() {
	cfg := questgo.DefaultConfig()
	cfg.Nx, cfg.Ny = 4, 4
	cfg.U, cfg.Beta, cfg.L = 4, 2, 10
	cfg.WarmSweeps, cfg.MeasSweeps = 20, 40
	cfg.Seed = 99

	// Reference: the uninterrupted run.
	ref, err := questgo.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Interrupted: cancel after measurement sweep 15 and save the restart
	// file, which carries the place in the schedule and the measurement.
	sim1, err := questgo.NewSimulation(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := sim1.RunContext(ctx, func(p questgo.Progress) {
		if p.Stage == "measure" && p.Sweep == 15 {
			cancel()
		}
	}); err != context.Canceled {
		log.Fatalf("interrupted run returned %v", err)
	}
	path := filepath.Join(os.TempDir(), fmt.Sprintf("questgo-restart-%d.ckpt", os.Getpid()))
	defer os.Remove(path)
	if err := sim1.Checkpoint().Save(path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint written after measurement sweep 15 of 40: %s\n", path)

	ck, err := questgo.LoadCheckpoint(path)
	if err != nil {
		log.Fatal(err)
	}
	sim2, err := questgo.Resume(ck)
	if err != nil {
		log.Fatal(err)
	}
	res := sim2.Run()

	fmt.Printf("\nuninterrupted: docc = %.6f +- %.6f, S(pi,pi) = %.4f\n", ref.DoubleOcc, ref.DoubleOccErr, ref.SAF)
	fmt.Printf("resumed:       docc = %.6f +- %.6f, S(pi,pi) = %.4f\n", res.DoubleOcc, res.DoubleOccErr, res.SAF)
	if res.Metrics, ref.Metrics = nil, nil; reflect.DeepEqual(res, ref) {
		fmt.Println("\nbit-for-bit identical Results: the restart file captures the chain and the measurement.")
	} else {
		fmt.Println("\nWARNING: resumed run diverged — this should never happen.")
	}
}

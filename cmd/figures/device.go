package main

import (
	"fmt"
	"os"
	"time"

	"questgo/internal/benchutil"
	"questgo/internal/gpu"
	"questgo/internal/gpu/hw"
	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

// delay sizes the accelerators' flush operands: update's default block.
const delay = 32

// figure9 is pure modeled clock: the transfer-amortization effect the cost
// model reproduces, and byte-identical from run to run (results/fig9.txt).
func figure9(p params) {
	fmt.Printf("Figure 9: simulated-GPU clustering (Alg 4) and wrapping (Alg 6), k=%d\n\n", p.k)
	tbl := benchutil.NewTable("N", "cluster GF/s", "wrap GF/s", "device DGEMM GF/s")
	for _, n := range p.sizes {
		nx, ok := squareSide(n)
		if !ok {
			continue
		}
		prop, field := setup(nx, 4, 0.1*float64(2*p.k), 2*p.k, rng.New(uint64(n)))
		dev := hw.NewDevice()
		acc := gpu.NewAccelerator(dev, prop, delay, false)

		dev.Reset() // exclude the one-time B/B^{-1} upload, as the paper does
		dst := mat.New(n, n)
		acc.Cluster(dst, field, hubbard.Up, 0, p.k)
		clusterGF := dev.GFlopsRate()

		dev.Reset()
		g := randomMatrix(rng.New(uint64(n)*3), n)
		acc.Wrap(g, field, hubbard.Up, 0)
		wrapGF := dev.GFlopsRate()

		// Pure device DGEMM rate at this size including one matrix
		// round trip (the CUBLAS-call-with-transfer comparison point).
		dev.Reset()
		da := dev.Malloc(n, n)
		db := dev.Malloc(n, n)
		dc := dev.Malloc(n, n)
		st := dev.NewStream()
		st.SetMatrix(da, g)
		st.SetMatrix(db, g)
		st.Dgemm(false, false, 1, da, db, 0, dc)
		st.GetMatrix(g, dc)
		gemmGF := dev.GFlopsRate()

		tbl.AddRow(n,
			fmt.Sprintf("%7.1f", clusterGF),
			fmt.Sprintf("%7.1f", wrapGF),
			fmt.Sprintf("%7.1f", gemmGF))
	}
	tbl.Render(os.Stdout)
	fmt.Println()
	fmt.Println("Expected shape (paper): clustering approaches device DGEMM rate")
	fmt.Println("(k GEMMs per result transfer); wrapping is transfer-bound and lower,")
	fmt.Println("but both rise with N.")
}

func figure10(p params) {
	fmt.Printf("Figure 10: hybrid CPU+GPU Green's function evaluation, L=%d, k=%d\n\n", p.l, p.k)
	fmt.Println("(clusters built on the simulated device; stratification with")
	fmt.Println("pre-pivoting on the host; rate = flops / (host time + modeled device time))")
	fmt.Println()
	tbl := benchutil.NewTable("N", "hybrid GF/s", "CPU-only GF/s")
	for _, n := range p.sizes {
		nx, ok := squareSide(n)
		if !ok {
			continue
		}
		prop, field := setup(nx, 4, 0.1*float64(p.l), p.l, rng.New(uint64(n)+1))
		dev := hw.NewDevice()
		acc := gpu.NewAccelerator(dev, prop, delay, false)
		gcs := greens.NewClusterSetWith(prop, field, hubbard.Up, p.k, acc.Cluster)

		// Hybrid: rebuild one cluster on the device (the recycling cost of
		// a sweep step) and evaluate G on the host.
		dev.Reset()
		start := time.Now()
		gcs.Recompute(field, 0)
		green(gcs.Chain(0), true)
		// Host wall time minus the host cost of *executing* the simulated
		// kernels (that execution stands in for the device's work, whose
		// cost is the modeled clock).
		hostSec := (time.Since(start) - dev.RealTime()).Seconds()
		hybridSec := hostSec + dev.Clock().Seconds()
		flops := benchutil.GreensFlops(n, gcs.NC) + benchutil.ClusterFlops(n, p.k)

		// CPU only: the same work entirely on the host (cluster set built
		// outside the timed region, matching the hybrid measurement).
		cpuCS := greens.NewClusterSet(prop, field, hubbard.Up, p.k)
		startCPU := time.Now()
		cpuCS.Recompute(field, 0)
		green(cpuCS.Chain(0), true)
		cpuSec := time.Since(startCPU).Seconds()

		tbl.AddRow(n,
			fmt.Sprintf("%7.2f", benchutil.GFlops(flops, hybridSec)),
			fmt.Sprintf("%7.2f", benchutil.GFlops(flops, cpuSec)))
	}
	tbl.Render(os.Stdout)
	fmt.Println()
	fmt.Println("Expected shape (paper): hybrid rate above CPU-only and growing")
	fmt.Println("with N as the device GEMMs dominate the offloaded fraction.")
}

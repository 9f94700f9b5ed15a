// Dynamics: imaginary-time-displaced Green's functions, the "dynamic
// measurements" QUEST supports beyond the equal-time observables of the
// paper's Section V. Measures G(k, tau) at the Fermi-surface momentum
// k = (pi/2, pi/2) and at the zone corner k = (pi, pi) for the half-filled
// 4x4 Hubbard model, and contrasts U = 0 with U = 4: interactions open a
// gap, visible as a faster tau decay at the Fermi point.
//
// This exercises the stable two-sided evaluation of G(tau, 0)
// (greens.Split), which stays near machine accuracy where naive forward
// propagation of G(0) loses a digit per slice.
//
// Run with:
//
//	go run ./examples/dynamics
package main

import (
	"fmt"
	"log"

	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/measure"
	"questgo/internal/rng"
	"questgo/internal/stats"
	"questgo/internal/update"
)

func main() {
	const (
		nx     = 4
		beta   = 4.0
		slices = 32
		warm   = 40
		sweeps = 60
	)
	for _, u := range []float64{0, 4} {
		lat := lattice.NewSquare(nx, nx, 1)
		model, err := hubbard.NewModel(lat, u, 0, beta, slices)
		if err != nil {
			log.Fatal(err)
		}
		prop := hubbard.NewPropagator(model)
		r := rng.New(31)
		field := hubbard.NewRandomField(slices, model.N(), r)
		sw := update.NewSweeper(prop, field, r, update.Options{ClusterK: 8})
		for i := 0; i < warm; i++ {
			sw.Sweep()
		}
		// Accumulate G(k, tau) over measurement sweeps, sign weighted (the
		// sign is 1 at half filling).
		var acc *stats.Accumulator
		var taus []int
		for i := 0; i < sweeps; i++ {
			sw.Sweep()
			d, err := measure.MeasureDisplaced(lat, prop, field, 4, slices/2, 8)
			if err != nil {
				log.Fatal(err)
			}
			taus = d.Taus
			// Flatten [tau][k] for the accumulator: keep two momenta.
			kFS := 1 + nx*1 // (pi/2, pi/2) on a 4x4 grid
			kAF := 2 + nx*2 // (pi, pi)
			sg := sw.Sign()
			row := make([]float64, 0, 2*len(d.Taus))
			for ti := range d.Taus {
				gk := d.GkTau(ti)
				row = append(row, sg*gk[kFS], sg*gk[kAF])
			}
			if acc == nil {
				acc = stats.NewAccumulator(len(row))
			}
			acc.Push(row, sg)
		}
		mean, errs := acc.Estimate()
		dtau := beta / float64(slices)
		fmt.Printf("U = %g:\n", u)
		fmt.Println("  tau     G(k_FS,tau)          G(k_AF,tau)")
		for ti, l := range taus {
			fmt.Printf("  %5.2f   %8.4f +- %.4f   %8.4f +- %.4f\n",
				dtau*float64(l), mean[2*ti], errs[2*ti], mean[2*ti+1], errs[2*ti+1])
		}
		fmt.Println()
	}
	fmt.Println("At U = 0, G(k_FS, tau) stays ~0.5 (gapless Fermi point) while the")
	fmt.Println("(pi,pi) corner decays fast. At U = 4 the Fermi-point propagator")
	fmt.Println("decays too: the Mott/Slater gap suppresses low-energy spectral weight.")
}

// Superconductor: the attractive Hubbard model. For U < 0 the
// Hubbard-Stratonovich field couples to the charge, both spin
// determinants coincide, and the weight is non-negative at any filling —
// DQMC with no sign problem. The model's low-temperature physics is
// s-wave pairing: this example tracks the uniform pair-field
// susceptibility P_s(q=0) as the temperature drops and contrasts it with
// the free-electron value, showing the pairing scale emerge.
//
// Run with:
//
//	go run ./examples/superconductor
package main

import (
	"fmt"
	"log"
	"math"

	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/measure"
	"questgo/internal/rng"
	"questgo/internal/update"
)

func main() {
	const (
		nx   = 4
		u    = -4.0
		dtau = 0.125
	)
	fmt.Printf("Attractive Hubbard model, %dx%d, U = %g (half filling)\n\n", nx, nx, u)
	fmt.Println("beta    P_s(q=0)   free P_s   ratio   docc    <m_z^2>")
	for _, beta := range []float64{1, 2, 4} {
		slices := int(beta / dtau)
		lat := lattice.NewSquare(nx, nx, 1)
		model, err := hubbard.NewModel(lat, u, 0, beta, slices)
		if err != nil {
			log.Fatal(err)
		}
		prop := hubbard.NewPropagator(model)
		r := rng.New(7)
		field := hubbard.NewRandomField(slices, model.N(), r)
		sw := update.NewSweeper(prop, field, r, update.Options{ClusterK: 8})
		for i := 0; i < 40; i++ {
			sw.Sweep()
		}
		var ps, docc, mom float64
		const samples = 8
		for s := 0; s < samples; s++ {
			sw.Sweep()
			p, err := measure.MeasureSusceptibility(lat, prop, field, 4, 8)
			if err != nil {
				log.Fatal(err)
			}
			ps += p.PairQ0() / samples
			et := measure.Measure(lat, sw.GreenUp(), sw.GreenDn(), sw.Sign())
			docc += et.DoubleOcc / samples
			mom += et.LocalMoment / samples
		}
		free := freePairQ0(lat, beta)
		fmt.Printf("%4.1f    %7.3f    %7.3f   %5.2f   %.3f   %.3f\n",
			beta, ps, free, ps/free, docc, mom)
	}
	fmt.Println()
	fmt.Println("The interacting P_s grows much faster than the free (log T) bubble —")
	fmt.Println("the attractive model's s-wave pairing instability. Double occupancy")
	fmt.Println("above 0.25 and a suppressed local moment show the on-site pairs.")
}

func freePairQ0(lat *lattice.Lattice, beta float64) float64 {
	var out float64
	for _, kp := range lat.MomentumGrid() {
		eps := -2 * (math.Cos(kp.Kx) + math.Cos(kp.Ky))
		if math.Abs(eps) < 1e-12 {
			out += beta / 4
		} else {
			out += math.Tanh(beta*eps/2) / (2 * eps)
		}
	}
	return out / float64(lat.N())
}

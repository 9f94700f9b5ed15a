package measure

import (
	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/mat"
)

// This file implements the imaginary-time-displaced ("dynamic")
// measurements that QUEST advertises alongside the equal-time ones: the
// single-particle propagator G(d, tau) = <c_{r+d}(tau) c^dag_r(0)> and its
// Fourier transform G(k, tau), whose tau-dependence carries spectral
// information (quasiparticle weights, gaps).

// Displaced holds G(d, tau) on a grid of displacements and time slices.
type Displaced struct {
	Lat *lattice.Lattice
	// Taus[i] is the slice index of the i-th measured displacement.
	Taus []int
	// GdTau[i][d] = (1/N) sum_r <c_{r+d}(tau_i) c^dag_r(0)>, spin averaged
	// over the two provided spin species.
	GdTau [][]float64
}

// MeasureDisplaced computes G(d, tau) for tau = every*dtau, 2*every*dtau,
// ..., up to maxTau slices, from the current field configuration. Each
// displaced Green's function is evaluated with the stable two-sided
// decomposition (greens.DisplacedGreen).
func MeasureDisplaced(lat *lattice.Lattice, p *hubbard.Propagator, f *hubbard.Field, every, maxTau, clusterK int) *Displaced {
	if every < 1 {
		every = 1
	}
	if maxTau > p.Model.L {
		maxTau = p.Model.L
	}
	d := &Displaced{Lat: lat}
	for l := every; l <= maxTau; l += every {
		gup := greens.DisplacedGreen(p, f, hubbard.Up, l, clusterK)
		gdn := greens.DisplacedGreen(p, f, hubbard.Down, l, clusterK)
		d.Taus = append(d.Taus, l)
		d.GdTau = append(d.GdTau, displacedGFun(lat, gup, gdn))
	}
	return d
}

// displacedGFun translation-averages <c_{r+d}(tau) c^dag_r(0)> =
// Gtau(r+d, r) over r within planes and over layers, spin averaged.
func displacedGFun(lat *lattice.Lattice, gup, gdn *mat.Dense) []float64 {
	nx, ny := lat.Nx, lat.Ny
	planeN := nx * ny
	n := lat.N()
	out := make([]float64, planeN)
	inv := 1 / float64(n)
	for r := 0; r < n; r++ {
		xr, yr, zr := lat.Coords(r)
		base := zr * planeN
		for jp := 0; jp < planeN; jp++ {
			j := base + jp
			xj, yj, _ := lat.Coords(j)
			dx := modInt(xj-xr, nx)
			dy := modInt(yj-yr, ny)
			out[dx+nx*dy] += 0.5 * (gup.At(j, r) + gdn.At(j, r)) * inv
		}
	}
	return out
}

// GkTau returns G(k, tau_i) for the i-th measured tau, on the x-fastest
// momentum grid.
func (d *Displaced) GkTau(i int) []float64 {
	return FourierPlane(d.Lat, d.GdTau[i])
}

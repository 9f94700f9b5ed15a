package measure

import (
	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lattice"
)

// This file adds the other two standard imaginary-time susceptibilities:
//
//	P_s        = Integral_0^beta dtau (1/N) sum_{a,b} <Delta_a(tau) Delta^dag_b(0)>,
//	chi_c(q)   = Integral_0^beta dtau <dn(q, tau) dn(-q, 0)>,  dn = n - <n>,
//
// the s-wave pair-field susceptibility (the superconducting diagnostic of
// the attractive model) and the charge susceptibility (compressibility at
// q -> 0). Wick factorization per configuration:
//
//	<Delta_a(tau) Delta^dag_b(0)> = Gup(tau,0)(a,b) * Gdn(tau,0)(a,b)
//	<n_a(tau) n_b(0)>             = n_a(tau) n_b(0)
//	                              + sum_s [-G_s(0,tau)(b,a)] G_s(tau,0)(a,b).
//
// ChiCD stores the *full* (unsubtracted) density correlation integral; the
// disconnected piece integrates to beta*<n_a><n_b> and must be removed at
// the ensemble level (subtract beta*<n>^2 from every bin) because the
// density product fluctuates between configurations.
type PairSusceptibility struct {
	Lat  *lattice.Lattice
	Beta float64
	// PsD[d] = Integral dtau (1/N) sum_r <Delta_{r+d}(tau) Delta^dag_r(0)>.
	PsD []float64
	// ChiCD[d] = Integral dtau full density-density correlation.
	ChiCD []float64
}

// MeasurePairSusceptibility computes the pair-field and charge
// susceptibilities for the current configuration, sampling tau every
// `every` slices.
func MeasurePairSusceptibility(lat *lattice.Lattice, p *hubbard.Propagator, f *hubbard.Field, every, clusterK int) *PairSusceptibility {
	if every < 1 {
		every = 1
	}
	L := p.Model.L
	dtau := p.Model.Dtau
	nx, ny := lat.Nx, lat.Ny
	planeN := nx * ny
	n := lat.N()
	out := &PairSusceptibility{
		Lat:   lat,
		Beta:  p.Model.Beta,
		PsD:   make([]float64, planeN),
		ChiCD: make([]float64, planeN),
	}

	csUp := greens.NewClusterSet(p, f, hubbard.Up, clusterK)
	csDn := greens.NewClusterSet(p, f, hubbard.Down, clusterK)
	g0Up := csUp.GreenAt(0, true)
	g0Dn := csDn.GreenAt(0, true)

	weight := dtau * float64(every)

	// tau = 0 terms: equal-time pair correlation and connected charge
	// correlation.
	pr := MeasurePairing(lat, g0Up, g0Dn)
	for d, v := range pr.Ps {
		out.PsD[d] += weight * v
	}
	addChargeTau0(lat, out.ChiCD, weight, g0Up, g0Dn)

	wrap := greens.NewWrapper(p)
	glUp := g0Up.Clone()
	glDn := g0Dn.Clone()
	next := every
	for l := 1; l <= L-1; l++ {
		wrap.Wrap(glUp, f, hubbard.Up, l-1)
		wrap.Wrap(glDn, f, hubbard.Down, l-1)
		if l != next {
			continue
		}
		next += every
		gtUp := greens.DisplacedGreen(p, f, hubbard.Up, l, clusterK)
		gtDn := greens.DisplacedGreen(p, f, hubbard.Down, l, clusterK)
		grUp := greens.DisplacedGreenReverse(p, f, hubbard.Up, l, clusterK)
		grDn := greens.DisplacedGreenReverse(p, f, hubbard.Down, l, clusterK)
		inv := weight / float64(n)
		for a := 0; a < n; a++ {
			xa, ya, za := lat.Coords(a)
			base := za * planeN
			nA := (1 - glUp.At(a, a)) + (1 - glDn.At(a, a))
			for jp := 0; jp < planeN; jp++ {
				b := base + jp
				xb, yb, _ := lat.Coords(b)
				dx := modInt(xa-xb, nx)
				dy := modInt(ya-yb, ny)
				d := dx + nx*dy
				// Pair: Gup(tau)(a,b) * Gdn(tau)(a,b).
				out.PsD[d] += gtUp.At(a, b) * gtDn.At(a, b) * inv
				// Full charge correlation: density product plus the
				// same-spin exchange contraction.
				nB := (1 - g0Up.At(b, b)) + (1 - g0Dn.At(b, b))
				val := nA * nB
				val += -grUp.At(b, a)*gtUp.At(a, b) - grDn.At(b, a)*gtDn.At(a, b)
				out.ChiCD[d] += val * inv
			}
		}
	}
	return out
}

// addChargeTau0 adds the weighted tau = 0 full charge correlation:
// n_a n_b plus the same-spin Wick exchange (delta - G(b,a)) G(a,b).
func addChargeTau0(lat *lattice.Lattice, dst []float64, weight float64, gup, gdn interface {
	At(int, int) float64
}) {
	nx, ny := lat.Nx, lat.Ny
	planeN := nx * ny
	n := lat.N()
	inv := weight / float64(n)
	for a := 0; a < n; a++ {
		xa, ya, za := lat.Coords(a)
		base := za * planeN
		nA := (1 - gup.At(a, a)) + (1 - gdn.At(a, a))
		for jp := 0; jp < planeN; jp++ {
			b := base + jp
			xb, yb, _ := lat.Coords(b)
			dx := modInt(xa-xb, nx)
			dy := modInt(ya-yb, ny)
			d := dx + nx*dy
			var delta float64
			if a == b {
				delta = 1
			}
			nB := (1 - gup.At(b, b)) + (1 - gdn.At(b, b))
			val := nA * nB
			val += (delta-gup.At(b, a))*gup.At(a, b) + (delta-gdn.At(b, a))*gdn.At(a, b)
			dst[d] += val * inv
		}
	}
}

// PairQ0 returns the uniform (q = 0) s-wave pair-field susceptibility.
func (s *PairSusceptibility) PairQ0() float64 {
	var out float64
	for _, v := range s.PsD {
		out += v
	}
	return out
}

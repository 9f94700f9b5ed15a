package measure

import (
	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/mat"
)

// This file implements the imaginary-time spin susceptibility
//
//	chi_zz(q) = Integral_0^beta dtau <m_z(q, tau) m_z(-q, 0)>,
//
// the canonical "dynamic" two-particle measurement (its q = (pi,pi) value
// diverges at an antiferromagnetic transition). The integrand is the
// unequal-time spin correlation, Wick-factorized per HS configuration into
// the forward and reverse displaced Green's functions:
//
//	<m(a,tau) m(b,0)> = (n_up - n_dn)(a,tau) * (n_up - n_dn)(b,0)
//	                  + sum_sigma [-G_sigma(0,tau)(b,a)] * [G_sigma(tau,0)(a,b)].
//
// The bosonic correlator is beta-periodic, so the rectangle rule over the
// measured slices integrates it with spectral accuracy in the sampling
// spacing.
type Susceptibility struct {
	Lat *lattice.Lattice
	// ChiD[d] = Integral dtau C_zz(d, tau), displacement resolved.
	ChiD []float64
}

// MeasureSusceptibility computes chi_zz for the current configuration,
// sampling tau every `every` slices (1 = every slice; larger values trade
// accuracy for the cost of the displaced evaluations). clusterK is the
// stratification cluster size.
func MeasureSusceptibility(lat *lattice.Lattice, p *hubbard.Propagator, f *hubbard.Field, every, clusterK int) *Susceptibility {
	if every < 1 {
		every = 1
	}
	L := p.Model.L
	dtau := p.Model.Dtau
	nx, ny := lat.Nx, lat.Ny
	planeN := nx * ny
	chi := &Susceptibility{Lat: lat, ChiD: make([]float64, planeN)}

	// Equal-time Green's functions at tau = 0.
	csUp := greens.NewClusterSet(p, f, hubbard.Up, clusterK)
	csDn := greens.NewClusterSet(p, f, hubbard.Down, clusterK)
	g0Up := csUp.GreenAt(0, true)
	g0Dn := csDn.GreenAt(0, true)

	weight := dtau * float64(every)
	// tau = 0 term: the equal-time C_zz.
	et := Measure(lat, g0Up, g0Dn, 1)
	for d, v := range et.Czz {
		chi.ChiD[d] += weight * v
	}
	// Wrapped equal-time G's provide the densities at tau_l.
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
		accumulateCzzTau(lat, chi.ChiD, weight, glUp, glDn, g0Up, g0Dn, gtUp, gtDn, grUp, grDn)
	}
	return chi
}

// accumulateCzzTau adds weight * C_zz(d, tau) to dst.
func accumulateCzzTau(lat *lattice.Lattice, dst []float64, weight float64,
	glUp, glDn, g0Up, g0Dn, gtUp, gtDn, grUp, grDn *mat.Dense) {
	nx, ny := lat.Nx, lat.Ny
	planeN := nx * ny
	n := lat.N()
	inv := weight / float64(n)
	for a := 0; a < n; a++ {
		xa, ya, za := lat.Coords(a)
		mA := (1 - glUp.At(a, a)) - (1 - glDn.At(a, a))
		base := za * planeN
		for jp := 0; jp < planeN; jp++ {
			b := base + jp
			xb, yb, _ := lat.Coords(b)
			dx := modInt(xa-xb, nx)
			dy := modInt(ya-yb, ny)
			d := dx + nx*dy
			mB := (1 - g0Up.At(b, b)) - (1 - g0Dn.At(b, b))
			val := mA * mB
			val += -grUp.At(b, a)*gtUp.At(a, b) - grDn.At(b, a)*gtDn.At(a, b)
			dst[d] += val * inv
		}
	}
}

// ChiAF returns chi_zz(pi, pi).
func (s *Susceptibility) ChiAF() float64 {
	var out float64
	nx := s.Lat.Nx
	for dy := 0; dy < s.Lat.Ny; dy++ {
		for dx := 0; dx < nx; dx++ {
			sign := 1.0
			if (dx+dy)%2 == 1 {
				sign = -1
			}
			out += sign * s.ChiD[dx+nx*dy]
		}
	}
	return out
}

// ChiUniform returns the uniform susceptibility chi_zz(q = 0).
func (s *Susceptibility) ChiUniform() float64 {
	var out float64
	for _, v := range s.ChiD {
		out += v
	}
	return out
}

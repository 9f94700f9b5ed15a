package measure

import (
	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/mat"
)

// This file implements the three standard imaginary-time susceptibilities,
//
//	chi_zz(q) = Integral_0^beta dtau <m_z(q, tau) m_z(-q, 0)>,
//	P_s       = Integral_0^beta dtau (1/N) sum_{a,b} <Delta_a(tau) Delta^dag_b(0)>,
//	chi_c(q)  = Integral_0^beta dtau <dn(q, tau) dn(-q, 0)>,  dn = n - <n>,
//
// the canonical "dynamic" two-particle measurements: the spin
// susceptibility (its q = (pi,pi) value diverges at an antiferromagnetic
// transition), the s-wave pair-field susceptibility (the superconducting
// diagnostic of the attractive model) and the charge susceptibility
// (compressibility at q -> 0). Per HS configuration each integrand
// Wick-factorizes into the Green's functions of one greens.Split per spin
// and tau — G(tau,tau) for the densities, G(tau,0) and G(0,tau) for the
// exchange:
//
//	<m(a,tau) m(b,0)> = (n_up - n_dn)(a,tau) * (n_up - n_dn)(b,0)
//	                  + sum_s [-G_s(0,tau)(b,a)] * [G_s(tau,0)(a,b)],
//	<n_a(tau) n_b(0)> = (n_up + n_dn)(a,tau) * (n_up + n_dn)(b,0)
//	                  + sum_s [-G_s(0,tau)(b,a)] * [G_s(tau,0)(a,b)],
//	<Delta_a(tau) Delta^dag_b(0)> = Gup(tau,0)(a,b) * Gdn(tau,0)(a,b),
//
// with n_s(a, tau) = 1 - G_s(tau,tau)(a,a). The bosonic correlators are
// beta-periodic, so the rectangle rule over the measured slices integrates
// them with spectral accuracy in the sampling spacing.
type Susceptibility struct {
	Lat  *lattice.Lattice
	Beta float64
	// ChiD[d] = Integral dtau C_zz(d, tau), displacement resolved.
	ChiD []float64
	// PsD[d] = Integral dtau (1/N) sum_r <Delta_{r+d}(tau) Delta^dag_r(0)>.
	PsD []float64
	// ChiCD[d] = Integral dtau full density-density correlation. It is the
	// *full* (unsubtracted) integral: the disconnected piece integrates to
	// beta*<n_a><n_b> and must be removed at the ensemble level (subtract
	// beta*<n>^2 from every bin) because the density product fluctuates
	// between configurations.
	ChiCD []float64
}

// MeasureSusceptibility computes chi_zz, P_s and chi_c for the current
// configuration, sampling tau every `every` slices (1 = every slice; larger
// values trade accuracy for the cost of the splits). clusterK is the
// stratification block size; it need not divide the slice count. A split
// whose two-sided inversion is singular fails the measurement with its
// error (lapack.ErrSingular), and no Susceptibility is returned.
func MeasureSusceptibility(lat *lattice.Lattice, p *hubbard.Propagator, f *hubbard.Field, every, clusterK int) (*Susceptibility, error) {
	if every < 1 {
		every = 1
	}
	L := p.Model.L
	planeN := lat.Nx * lat.Ny
	s := &Susceptibility{
		Lat:   lat,
		Beta:  p.Model.Beta,
		ChiD:  make([]float64, planeN),
		PsD:   make([]float64, planeN),
		ChiCD: make([]float64, planeN),
	}
	weight := p.Model.Dtau * float64(every)
	// G(0) = G(beta, beta), the split after the last slice.
	up0 := greens.SplitAt(p, f, hubbard.Up, L, clusterK)
	dn0 := greens.SplitAt(p, f, hubbard.Down, L, clusterK)
	g0Up, g0Dn := up0.Equal(), dn0.Equal()
	if err := firstErr(up0, dn0); err != nil {
		return nil, err
	}
	s.addTau0(weight, g0Up, g0Dn)
	for l := every; l < L; l += every {
		up := greens.SplitAt(p, f, hubbard.Up, l, clusterK)
		dn := greens.SplitAt(p, f, hubbard.Down, l, clusterK)
		eqUp, eqDn := up.Equal(), dn.Equal()
		gtUp, gtDn := up.Forward(), dn.Forward()
		grUp, grDn := up.Reverse(), dn.Reverse()
		if err := firstErr(up, dn); err != nil {
			return nil, err
		}
		s.addTau(weight, g0Up, g0Dn, eqUp, eqDn, gtUp, gtDn, grUp, grDn)
	}
	return s, nil
}

// firstErr returns the first error the two spins' splits kept, up before
// down.
func firstErr(up, dn *greens.Split) error {
	if err := up.Err(); err != nil {
		return err
	}
	return dn.Err()
}

// addTau0 adds the weighted tau = 0 terms: the equal-time C_zz and pair
// correlations, and the full charge correlation n_a n_b plus the same-spin
// Wick exchange (delta - G(b,a)) G(a,b).
func (s *Susceptibility) addTau0(weight float64, gup, gdn *mat.Dense) {
	for d, v := range Measure(s.Lat, gup, gdn, 1).Czz {
		s.ChiD[d] += weight * v
	}
	for d, v := range MeasurePairing(s.Lat, gup, gdn).Ps {
		s.PsD[d] += weight * v
	}
	s.eachPair(weight, func(a, b, d int, inv float64) {
		var delta float64
		if a == b {
			delta = 1
		}
		nA := (1 - gup.At(a, a)) + (1 - gdn.At(a, a))
		nB := (1 - gup.At(b, b)) + (1 - gdn.At(b, b))
		val := nA * nB
		val += (delta-gup.At(b, a))*gup.At(a, b) + (delta-gdn.At(b, a))*gdn.At(a, b)
		s.ChiCD[d] += val * inv
	})
}

// addTau adds weight times the tau_l > 0 integrands, from the equal-time
// G(0) and the split's G(tau,tau) (eq), G(tau,0) (gt) and G(0,tau) (gr).
func (s *Susceptibility) addTau(weight float64, g0Up, g0Dn, eqUp, eqDn, gtUp, gtDn, grUp, grDn *mat.Dense) {
	s.eachPair(weight, func(a, b, d int, inv float64) {
		upA, dnA := 1-eqUp.At(a, a), 1-eqDn.At(a, a)
		upB, dnB := 1-g0Up.At(b, b), 1-g0Dn.At(b, b)
		exchange := -grUp.At(b, a)*gtUp.At(a, b) - grDn.At(b, a)*gtDn.At(a, b)
		spin := (upA - dnA) * (upB - dnB)
		spin += exchange
		s.ChiD[d] += spin * inv
		s.PsD[d] += gtUp.At(a, b) * gtDn.At(a, b) * inv
		charge := (upA + dnA) * (upB + dnB)
		charge += exchange
		s.ChiCD[d] += charge * inv
	})
}

// eachPair calls fn for every site a and every site b of a's plane, with
// d the in-plane displacement a - b and inv = weight / N.
func (s *Susceptibility) eachPair(weight float64, fn func(a, b, d int, inv float64)) {
	lat := s.Lat
	nx, ny := lat.Nx, lat.Ny
	planeN := nx * ny
	n := lat.N()
	inv := weight / float64(n)
	for a := 0; a < n; a++ {
		xa, ya, za := lat.Coords(a)
		base := za * planeN
		for jp := 0; jp < planeN; jp++ {
			b := base + jp
			xb, yb, _ := lat.Coords(b)
			fn(a, b, modInt(xa-xb, nx)+nx*modInt(ya-yb, ny), inv)
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

// PairQ0 returns the uniform (q = 0) s-wave pair-field susceptibility.
func (s *Susceptibility) PairQ0() float64 {
	var out float64
	for _, v := range s.PsD {
		out += v
	}
	return out
}

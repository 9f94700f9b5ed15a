// Package hubbard defines the Hubbard Hamiltonian parameters, the
// Hubbard-Stratonovich auxiliary field, and the single-particle propagators
// B_l = V_l(h_l) * exp(-dtau*K) that the DQMC Green's function kernels
// consume.
package hubbard

import (
	"fmt"
	"math"

	"questgo/internal/lapack"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

// Spin labels the two electron species.
type Spin int

const (
	Up   Spin = +1
	Down Spin = -1
)

// Model collects the physical and discretization parameters of a DQMC run:
// H = H_T + H_V + H_mu on the given lattice, inverse temperature beta
// discretized into L slices of size dtau = beta/L.
//
// Both signs of U are supported. For U > 0 (repulsion) the discrete
// Hubbard-Stratonovich field couples to the spin, sigma*nu*h, and the
// weight is det(M+)det(M-). For U < 0 (attraction) it couples to the
// charge, nu*h for both spins, times a bosonic factor exp(-nu*h) per
// (site, slice); the two determinants are then identical and the weight is
// non-negative at any filling — the attractive model has no sign problem.
type Model struct {
	Lat  *lattice.Lattice
	U    float64 // on-site interaction; < 0 selects the attractive model
	Mu   float64 // chemical potential
	Beta float64 // inverse temperature
	L    int     // imaginary-time slices
	Dtau float64 // Beta / L
	Nu   float64 // HS coupling: cosh(nu) = exp(|U|*dtau/2)
}

// Attractive reports whether the model uses the charge-channel (U < 0)
// decoupling.
func (m *Model) Attractive() bool { return m.U < 0 }

// NewModel validates the parameters and computes the derived quantities.
func NewModel(lat *lattice.Lattice, u, mu, beta float64, l int) (*Model, error) {
	if l < 1 {
		return nil, fmt.Errorf("hubbard: need at least one time slice, got %d", l)
	}
	if beta <= 0 {
		return nil, fmt.Errorf("hubbard: beta must be positive, got %g", beta)
	}
	dtau := beta / float64(l)
	m := &Model{Lat: lat, U: u, Mu: mu, Beta: beta, L: l, Dtau: dtau}
	// cosh(nu) = exp(|U|*dtau/2)  =>  nu = acosh(exp(|U|*dtau/2)).
	m.Nu = math.Acosh(math.Exp(math.Abs(u) * dtau / 2))
	return m, nil
}

// N returns the number of lattice sites (the matrix dimension).
func (m *Model) N() int { return m.Lat.N() }

// Field is the Hubbard-Stratonovich field h[l][i] in {-1, +1}, one value per
// (time slice, site).
type Field struct {
	L, N int
	H    [][]float64
}

// NewRandomField draws an independent +-1 configuration, the starting point
// of the warmup stage.
func NewRandomField(l, n int, r *rng.Rand) *Field {
	f := &Field{L: l, N: n, H: make([][]float64, l)}
	for s := range f.H {
		row := make([]float64, n)
		for i := range row {
			row[i] = r.PlusMinus()
		}
		f.H[s] = row
	}
	return f
}

// Flip negates h[l][i].
func (f *Field) Flip(l, i int) { f.H[l][i] = -f.H[l][i] }

// Clone deep-copies the field (used by tests that compare trajectories).
func (f *Field) Clone() *Field {
	c := &Field{L: f.L, N: f.N, H: make([][]float64, f.L)}
	for s := range f.H {
		c.H[s] = append([]float64(nil), f.H[s]...)
	}
	return c
}

// Propagator owns the field-independent kinetic propagators
// B = exp(-dtau*K) and B^{-1} = exp(+dtau*K), computed once per simulation
// from the eigendecomposition of the symmetric hopping matrix K.
type Propagator struct {
	Model      *Model
	Bkin, Binv *mat.Dense
	expNu      [2]float64 // e^{+nu}, e^{-nu} for h = +1/-1 at sigma = +1
	exp2Nu     [2]float64 // e^{+2nu}, e^{-2nu}: what a flip multiplies V and the bosonic weight by
}

// NewPropagator builds the kinetic propagators for the model.
func NewPropagator(m *Model) *Propagator {
	k := m.Lat.KMatrix(m.Mu)
	bkin, binv := lapack.SymExp(k, -m.Dtau)
	return &Propagator{
		Model:  m,
		Bkin:   bkin,
		Binv:   binv,
		expNu:  [2]float64{math.Exp(m.Nu), math.Exp(-m.Nu)},
		exp2Nu: [2]float64{math.Exp(2 * m.Nu), math.Exp(-2 * m.Nu)},
	}
}

// VElem returns the V_l(i) diagonal element for a field value h in
// {-1, +1}: exp(sigma*nu*h) in the repulsive (spin-coupled) model,
// exp(nu*h) for both spins in the attractive (charge-coupled) model.
func (p *Propagator) VElem(sigma Spin, h float64) float64 {
	if p.Model.Attractive() {
		sigma = Up
	}
	if (sigma == Up) == (h > 0) {
		return p.expNu[0]
	}
	return p.expNu[1]
}

// VDiag fills v with the diagonal of V_l for the given slice and spin.
func (p *Propagator) VDiag(sigma Spin, f *Field, l int, v []float64) {
	h := f.H[l]
	for i := range h {
		v[i] = p.VElem(sigma, h[i])
	}
}

// Alpha returns the rank-1 update amplitude when h_{l,i} is flipped:
// exp(-2*sigma*nu*h) - 1 (repulsive) or exp(-2*nu*h) - 1 for both spins
// (attractive). h is +-1, so the exponential is one of the two NewPropagator
// computed, not a math.Exp per proposal.
func (p *Propagator) Alpha(sigma Spin, h float64) float64 {
	if p.Model.Attractive() {
		sigma = Up
	}
	if (sigma == Up) == (h > 0) {
		return p.exp2Nu[1] - 1
	}
	return p.exp2Nu[0] - 1
}

// BosonRatio returns the ratio of the field-dependent bosonic weight
// factor under a flip of h: exp(+2*nu*h) in the attractive model (from the
// per-site exp(-nu*h) factor of the charge decoupling), 1 in the repulsive
// model.
func (p *Propagator) BosonRatio(h float64) float64 {
	if !p.Model.Attractive() {
		return 1
	}
	if h > 0 {
		return p.exp2Nu[0]
	}
	return p.exp2Nu[1]
}

// BMatrix materializes B_{l,sigma} = V_l * exp(-dtau*K) as a dense matrix.
func (p *Propagator) BMatrix(sigma Spin, f *Field, l int) *mat.Dense {
	b := p.Bkin.Clone()
	v := make([]float64, p.Model.N())
	p.VDiag(sigma, f, l, v)
	b.ScaleRows(v)
	return b
}

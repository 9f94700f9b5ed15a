// Package lattice defines the site geometries DQMC simulates: the periodic
// two-dimensional rectangular lattice that QUEST uses by default, and the
// stacked multilayer geometry (several coupled planes) whose simulation at
// useful aspect ratios is the paper's motivating application.
package lattice

import (
	"fmt"

	"questgo/internal/mat"
)

// Lattice is a periodic Nx x Ny x Layers stack of rectangular planes.
// Layers = 1 reproduces the standard 2D Hubbard geometry. Sites are indexed
// x-fastest: i = x + Nx*(y + Ny*z).
type Lattice struct {
	Nx, Ny, Layers int
	// T is the nearest-neighbor hopping within a plane and Tperp the
	// hopping between adjacent planes (open boundaries in z, periodic in
	// x and y, as appropriate for an interface/multilayer geometry).
	T, Tperp float64
	// TPrime is the next-nearest-neighbor (diagonal) in-plane hopping t',
	// the standard one-band refinement for cuprate band structures; it
	// breaks particle-hole symmetry, so expect <sign> < 1 away from
	// special points. Zero by default.
	TPrime float64
	// Ty, when nonzero, replaces T for the y-direction bonds, giving an
	// anisotropic (quasi-1D towards Ty -> 0) lattice. Zero means isotropic.
	Ty float64
}

// TyEff returns the effective y-direction hopping (T unless Ty is set).
func (l *Lattice) TyEff() float64 {
	if l.Ty != 0 {
		return l.Ty
	}
	return l.T
}

// NewSquare returns a periodic nx x ny single-plane lattice with in-plane
// hopping t.
func NewSquare(nx, ny int, t float64) *Lattice {
	if nx < 1 || ny < 1 {
		panic("lattice: dimensions must be positive")
	}
	return &Lattice{Nx: nx, Ny: ny, Layers: 1, T: t}
}

// NewMultilayer returns a stack of `layers` periodic nx x ny planes with
// in-plane hopping t and inter-plane hopping tperp.
func NewMultilayer(nx, ny, layers int, t, tperp float64) *Lattice {
	if nx < 1 || ny < 1 || layers < 1 {
		panic("lattice: dimensions must be positive")
	}
	return &Lattice{Nx: nx, Ny: ny, Layers: layers, T: t, Tperp: tperp}
}

// WithTPrime returns a copy of the lattice with diagonal hopping t' set.
func (l *Lattice) WithTPrime(tp float64) *Lattice {
	c := *l
	c.TPrime = tp
	return &c
}

// WithTy returns a copy with anisotropic y-direction hopping.
func (l *Lattice) WithTy(ty float64) *Lattice {
	c := *l
	c.Ty = ty
	return &c
}

// N returns the total number of sites.
func (l *Lattice) N() int { return l.Nx * l.Ny * l.Layers }

// Index maps coordinates (with periodic wrapping in x and y) to a site index.
func (l *Lattice) Index(x, y, z int) int {
	x = mod(x, l.Nx)
	y = mod(y, l.Ny)
	if z < 0 || z >= l.Layers {
		panic(fmt.Sprintf("lattice: layer %d out of range", z))
	}
	return x + l.Nx*(y+l.Ny*z)
}

// Coords inverts Index.
func (l *Lattice) Coords(i int) (x, y, z int) {
	x = i % l.Nx
	i /= l.Nx
	y = i % l.Ny
	z = i / l.Ny
	return
}

// Neighbors returns the site indices connected to site i by a hopping bond,
// in deterministic order (+x, -x, +y, -y, then +z, -z when present).
func (l *Lattice) Neighbors(i int) []int {
	x, y, z := l.Coords(i)
	nb := make([]int, 0, 6)
	if l.Nx > 1 {
		nb = append(nb, l.Index(x+1, y, z))
		if l.Nx > 2 {
			nb = append(nb, l.Index(x-1, y, z))
		}
	}
	if l.Ny > 1 {
		nb = append(nb, l.Index(x, y+1, z))
		if l.Ny > 2 {
			nb = append(nb, l.Index(x, y-1, z))
		}
	}
	if z+1 < l.Layers {
		nb = append(nb, l.Index(x, y, z+1))
	}
	if z-1 >= 0 {
		nb = append(nb, l.Index(x, y, z-1))
	}
	return nb
}

// KMatrix builds the quadratic-form matrix K of H_K = sum c^dag K c:
// K(r,r') = -t for nearest neighbors (in plane), -tperp between adjacent
// layers, and K(r,r) = -mu. DQMC propagates with B = exp(-dtau*K).
func (l *Lattice) KMatrix(mu float64) *mat.Dense {
	n := l.N()
	k := mat.New(n, n)
	for i := 0; i < n; i++ {
		k.Set(i, i, -mu)
		x, y, z := l.Coords(i)
		// Accumulate bonds additively so that small lattices where +x and
		// -x wrap to the same neighbor get the doubled matrix element the
		// Hamiltonian demands.
		if l.Nx > 1 {
			k.Set(i, l.Index(x+1, y, z), k.At(i, l.Index(x+1, y, z))-l.T)
			k.Set(i, l.Index(x-1, y, z), k.At(i, l.Index(x-1, y, z))-l.T)
		}
		if l.Ny > 1 {
			ty := l.TyEff()
			k.Set(i, l.Index(x, y+1, z), k.At(i, l.Index(x, y+1, z))-ty)
			k.Set(i, l.Index(x, y-1, z), k.At(i, l.Index(x, y-1, z))-ty)
		}
		if z+1 < l.Layers {
			j := l.Index(x, y, z+1)
			k.Set(i, j, k.At(i, j)-l.Tperp)
		}
		if z-1 >= 0 {
			j := l.Index(x, y, z-1)
			k.Set(i, j, k.At(i, j)-l.Tperp)
		}
		if l.TPrime != 0 && l.Nx > 1 && l.Ny > 1 {
			for _, d := range [4][2]int{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
				j := l.Index(x+d[0], y+d[1], z)
				k.Set(i, j, k.At(i, j)-l.TPrime)
			}
		}
	}
	return k
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

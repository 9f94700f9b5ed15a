// Package measure computes the equal-time physical observables of the
// paper's Section V from the DQMC Green's functions: densities, double
// occupancy, energies, the momentum distribution <n_k> (Figures 5 and 6),
// and the z-component spin-spin correlation C_zz(r) with its
// antiferromagnetic structure factor (Figure 7).
//
// Conventions: G_sigma(r, r') = <c_r c^dag_r'>, so the density matrix is
// <c^dag_r' c_r> = delta_rr' - G_sigma(r, r'). All displacement-resolved
// quantities are translation averaged within planes and averaged over
// layers, and are indexed d = dx + Nx*dy with dx in [0, Nx).
package measure

import (
	"math"

	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/parallel"
)

// EqualTime holds the observables extracted from one field configuration.
type EqualTime struct {
	Lat *lattice.Lattice

	Sign float64 // fermion sign of the configuration weight

	DensityUp, DensityDn float64 // <n_sigma> per site
	DoubleOcc            float64 // <n_up n_dn> per site
	Kinetic              float64 // <H_T>/N (hopping energy per site)
	LocalMoment          float64 // <m_z^2> per site, m_z = n_up - n_dn

	// LayerDensity[z] is the per-site density of plane z (interesting for
	// the multilayer geometry the paper motivates).
	LayerDensity []float64

	// GFun[d] = (1/N) sum_r <c^dag_{r+d} c_r>, spin averaged; its Fourier
	// transform is the momentum distribution.
	GFun []float64

	// Czz[d] = (1/N) sum_r <m_z(r+d) m_z(r)>.
	Czz []float64
}

// Density returns the total per-site density <n_up + n_dn>.
func (e *EqualTime) Density() float64 { return e.DensityUp + e.DensityDn }

// Measure computes all equal-time observables from the two spin Green's
// functions of the current configuration.
func Measure(lat *lattice.Lattice, gup, gdn *mat.Dense, sign float64) *EqualTime {
	n := lat.N()
	if gup.Rows != n || gdn.Rows != n {
		panic("measure: Green's function dimension mismatch")
	}
	nx, ny, nl := lat.Nx, lat.Ny, lat.Layers
	planeN := nx * ny
	e := &EqualTime{
		Lat:          lat,
		Sign:         sign,
		LayerDensity: make([]float64, nl),
		GFun:         make([]float64, planeN),
		Czz:          make([]float64, planeN),
	}

	// Site-local quantities.
	for i := 0; i < n; i++ {
		nup := 1 - gup.At(i, i)
		ndn := 1 - gdn.At(i, i)
		e.DensityUp += nup
		e.DensityDn += ndn
		e.DoubleOcc += nup * ndn
		_, _, z := lat.Coords(i)
		e.LayerDensity[z] += nup + ndn
	}
	e.DensityUp /= float64(n)
	e.DensityDn /= float64(n)
	e.DoubleOcc /= float64(n)
	for z := range e.LayerDensity {
		e.LayerDensity[z] /= float64(planeN)
	}
	e.LocalMoment = e.DensityUp + e.DensityDn - 2*e.DoubleOcc

	// Kinetic energy: <H_T> = sum_{<rr'>} -t (<c^dag_r c_r'> + h.c.) etc.
	// Use the hopping structure via Neighbors (mu excluded).
	var kin float64
	for i := 0; i < n; i++ {
		x, y, z := lat.Coords(i)
		// In-plane bonds counted once per direction (+x, +y).
		if lat.Nx > 1 {
			j := lat.Index(x+1, y, z)
			kin += -lat.T * bondDensity(gup, gdn, i, j)
		}
		if lat.Ny > 1 {
			j := lat.Index(x, y+1, z)
			kin += -lat.TyEff() * bondDensity(gup, gdn, i, j)
		}
		if z+1 < nl {
			j := lat.Index(x, y, z+1)
			kin += -lat.Tperp * bondDensity(gup, gdn, i, j)
		}
		if lat.TPrime != 0 && lat.Nx > 1 && lat.Ny > 1 {
			// Diagonal bonds counted once per site via the +x+y and +x-y
			// directions.
			j := lat.Index(x+1, y+1, z)
			kin += -lat.TPrime * bondDensity(gup, gdn, i, j)
			j = lat.Index(x+1, y-1, z)
			kin += -lat.TPrime * bondDensity(gup, gdn, i, j)
		}
	}
	e.Kinetic = kin / float64(n)

	// Displacement-resolved correlations, translation averaged in-plane.
	// The O(N * planeN) pair loop is the expensive part of a measurement;
	// it parallelizes over displacements d (the same OpenMP-style split the
	// paper applies to its fine-grained loops). Each worker owns its output
	// entries and sums over sources i in ascending order, so the bits do not
	// depend on the worker count.
	inv := 1 / float64(n)
	parallel.For(planeN, 16, func(lo, hi int) {
		for d := lo; d < hi; d++ {
			dx, dy := d%nx, d/nx
			var gsum, csum float64
			for i := 0; i < n; i++ {
				xi, yi, zi := lat.Coords(i)
				mzI := (1 - gup.At(i, i)) - (1 - gdn.At(i, i))
				j := lat.Index(xi+dx, yi+dy, zi) // same-layer partner i + d
				// <c^dag_{i+d} c_i>.
				var delta float64
				if i == j {
					delta = 1
				}
				gfun := delta - 0.5*(gup.At(i, j)+gdn.At(i, j))
				gsum += gfun * inv

				mzJ := (1 - gup.At(j, j)) - (1 - gdn.At(j, j))
				czz := mzI * mzJ
				// Same-spin Wick contractions: (delta - G(i,j)) * G(j,i).
				czz += (delta - gup.At(i, j)) * gup.At(j, i)
				czz += (delta - gdn.At(i, j)) * gdn.At(j, i)
				csum += czz * inv
			}
			e.GFun[d], e.Czz[d] = gsum, csum
		}
	})
	return e
}

// bondDensity returns <c^dag_i c_j> + <c^dag_j c_i> summed over both spins
// for i != j.
func bondDensity(gup, gdn *mat.Dense, i, j int) float64 {
	return -gup.At(j, i) - gup.At(i, j) - gdn.At(j, i) - gdn.At(i, j)
}

// MomentumDistribution Fourier transforms GFun onto the momentum grid:
// <n_k> = sum_d exp(i k.d) GFun(d), returned in the x-fastest grid order of
// lattice.MomentumGrid.
func (e *EqualTime) MomentumDistribution() []float64 {
	return FourierPlane(e.Lat, e.GFun)
}

// SpinStructureFactor returns S(q) = sum_d exp(i q.d) Czz(d) on the grid;
// the antiferromagnetic structure factor of Figure 7's discussion is the
// value at q = (pi, pi).
func (e *EqualTime) SpinStructureFactor() []float64 {
	return FourierPlane(e.Lat, e.Czz)
}

// AFStructureFactor returns S(pi, pi). The lattice must have even linear
// dimensions for (pi, pi) to be on the grid; for odd sizes the closest grid
// point is used.
func (e *EqualTime) AFStructureFactor() float64 {
	s := 0.0
	nx, ny := e.Lat.Nx, e.Lat.Ny
	for dy := 0; dy < ny; dy++ {
		for dx := 0; dx < nx; dx++ {
			sign := 1.0
			if (dx+dy)%2 == 1 {
				sign = -1
			}
			s += sign * e.Czz[dx+nx*dy]
		}
	}
	return s
}

// FourierPlane computes f(k) = sum_d exp(i k.d) f(d) for a real, in-plane
// displacement function, returning the (real) values on the x-fastest
// momentum grid. Inversion symmetry of translation-averaged correlators
// makes the result real; the imaginary part is discarded (it vanishes to
// roundoff).
func FourierPlane(lat *lattice.Lattice, f []float64) []float64 {
	nx, ny := lat.Nx, lat.Ny
	if len(f) != nx*ny {
		panic("measure: displacement function has wrong length")
	}
	out := make([]float64, nx*ny)
	parallel.For(nx*ny, 4, func(lo, hi int) {
		for kidx := lo; kidx < hi; kidx++ {
			kx := kidx % nx
			ky := kidx / nx
			var re float64
			for dy := 0; dy < ny; dy++ {
				for dx := 0; dx < nx; dx++ {
					phase := 2 * math.Pi * (float64(kx*dx)/float64(nx) + float64(ky*dy)/float64(ny))
					re += f[dx+nx*dy] * math.Cos(phase)
				}
			}
			out[kidx] = re
		}
	})
	return out
}

func modInt(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

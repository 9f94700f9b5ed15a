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
	"sync"
	"sync/atomic"

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
// functions of the current configuration, into a new record.
func Measure(lat *lattice.Lattice, gup, gdn *mat.Dense, sign float64) *EqualTime {
	e := new(EqualTime)
	MeasureInto(e, lat, gup, gdn, sign)
	return e
}

// pairGrain is the fewest displacements one worker of MeasureInto's pair
// loop takes.
const pairGrain = 16

// MeasureInto is Measure into a caller-owned record: every field of e is
// overwritten, and its slices are reused when they have the lattice's
// lengths, so a record measured again at the same lattice allocates nothing.
func MeasureInto(e *EqualTime, lat *lattice.Lattice, gup, gdn *mat.Dense, sign float64) {
	n := lat.N()
	if gup.Rows != n || gdn.Rows != n {
		panic("measure: Green's function dimension mismatch")
	}
	nx, ny, nl := lat.Nx, lat.Ny, lat.Layers
	planeN := nx * ny
	*e = EqualTime{
		Lat:          lat,
		Sign:         sign,
		LayerDensity: zeroed(e.LayerDensity, nl),
		GFun:         zeroed(e.GFun, planeN),
		Czz:          zeroed(e.Czz, planeN),
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
	// depend on the worker count. A plane too small for two workers runs the
	// loop directly, without the closure a parallel.For would allocate.
	if planeN < 2*pairGrain {
		e.pairSums(gup, gdn, 0, planeN)
		return
	}
	parallel.For(planeN, pairGrain, func(lo, hi int) { e.pairSums(gup, gdn, lo, hi) })
}

// zeroed returns v cleared if it has length n, a new zero slice otherwise.
func zeroed(v []float64, n int) []float64 {
	if len(v) != n {
		return make([]float64, n)
	}
	clear(v)
	return v
}

// pairSums fills GFun[d] and Czz[d] for the displacements d in [lo, hi).
func (e *EqualTime) pairSums(gup, gdn *mat.Dense, lo, hi int) {
	lat := e.Lat
	n, nx := lat.N(), lat.Nx
	inv := 1 / float64(n)
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
}

// bondDensity returns <c^dag_i c_j> + <c^dag_j c_i> summed over both spins
// for i != j.
func bondDensity(gup, gdn *mat.Dense, i, j int) float64 {
	return -gup.At(j, i) - gup.At(i, j) - gdn.At(j, i) - gdn.At(i, j)
}

// MomentumDistributionInto Fourier transforms GFun onto the momentum grid,
// <n_k> = sum_d exp(i k.d) GFun(d), and writes it into dst (length Nx*Ny)
// in the x-fastest grid order of lattice.MomentumGrid.
func (e *EqualTime) MomentumDistributionInto(dst []float64) {
	FourierPlaneInto(dst, e.Lat, e.GFun)
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
	out := make([]float64, lat.Nx*lat.Ny)
	FourierPlaneInto(out, lat, f)
	return out
}

// fourierParMin is the plane size from which FourierPlaneInto splits its
// rows over the pool: below 8x8 a transform is a few thousand multiply-adds,
// about what one hand-off costs.
const fourierParMin = 64

// FourierPlaneInto is FourierPlane into dst (length Nx*Ny). Each output is
// one ascending sum over the cached cosine row, whoever computes it, so the
// bits do not depend on the split.
func FourierPlaneInto(dst []float64, lat *lattice.Lattice, f []float64) {
	nx, ny := lat.Nx, lat.Ny
	planeN := nx * ny
	if len(f) != planeN || len(dst) != planeN {
		panic("measure: displacement function has wrong length")
	}
	table := cosTable(nx, ny)
	if planeN < fourierParMin {
		fourierRows(dst, table, f, 0, planeN)
		return
	}
	parallel.For(planeN, 4, func(lo, hi int) { fourierRows(dst, table, f, lo, hi) })
}

// fourierRows writes the momenta [lo, hi) of the transform of f into out.
func fourierRows(out, table, f []float64, lo, hi int) {
	planeN := len(f)
	for kidx := lo; kidx < hi; kidx++ {
		row := table[kidx*planeN : (kidx+1)*planeN]
		var re float64
		for d, v := range f {
			re += v * row[d]
		}
		out[kidx] = re
	}
}

// cosTables holds FourierPlane's cosine table per in-plane shape
// [2]int{nx, ny}: built on first use, read-only after. lastCos caches the
// most recent shape's entry, so the steady state of one run finds its table
// without boxing a map key.
var (
	cosTables sync.Map
	lastCos   atomic.Pointer[cosEntry]
)

type cosEntry struct {
	nx, ny int
	t      []float64
}

// cosTable returns cos(k.d) for every momentum kidx and displacement d of
// an nx x ny plane at [kidx*nx*ny + d]. Each entry is math.Cos of the
// phase 2π(kx·dx/nx + ky·dy/ny) evaluated as below, so FourierPlane's sums
// are bit for bit those of calling math.Cos per term, at (nx·ny)² cosines
// per shape instead of per call.
func cosTable(nx, ny int) []float64 {
	if e := lastCos.Load(); e != nil && e.nx == nx && e.ny == ny {
		return e.t
	}
	key := [2]int{nx, ny}
	if t, ok := cosTables.Load(key); ok {
		lastCos.Store(&cosEntry{nx, ny, t.([]float64)})
		return t.([]float64)
	}
	planeN := nx * ny
	t := make([]float64, planeN*planeN)
	for kidx := 0; kidx < planeN; kidx++ {
		kx, ky := kidx%nx, kidx/nx
		for dy := 0; dy < ny; dy++ {
			for dx := 0; dx < nx; dx++ {
				phase := 2 * math.Pi * (float64(kx*dx)/float64(nx) + float64(ky*dy)/float64(ny))
				t[kidx*planeN+dx+nx*dy] = math.Cos(phase)
			}
		}
	}
	actual, _ := cosTables.LoadOrStore(key, t)
	lastCos.Store(&cosEntry{nx, ny, actual.([]float64)})
	return actual.([]float64)
}

func modInt(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

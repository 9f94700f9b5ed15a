package lattice

import "math"

// KPoint is a momentum-space grid point of a periodic plane.
type KPoint struct {
	Ix, Iy int     // integer grid coordinates, kx = 2*pi*Ix/Nx
	Kx, Ky float64 // momentum components in (-pi, pi]
}

// MomentumGrid returns the Nx*Ny allowed in-plane momenta, x-fastest, with
// components folded into (-pi, pi].
func (l *Lattice) MomentumGrid() []KPoint {
	pts := make([]KPoint, 0, l.Nx*l.Ny)
	for iy := 0; iy < l.Ny; iy++ {
		for ix := 0; ix < l.Nx; ix++ {
			pts = append(pts, KPoint{
				Ix: ix, Iy: iy,
				Kx: foldMomentum(ix, l.Nx),
				Ky: foldMomentum(iy, l.Ny),
			})
		}
	}
	return pts
}

func foldMomentum(i, n int) float64 {
	k := 2 * math.Pi * float64(i) / float64(n)
	if k > math.Pi {
		k -= 2 * math.Pi
	}
	return k
}

// SymmetryPath returns the momentum grid indices (into the x-fastest
// ordering used by MomentumGrid and by the measure package's momentum
// distribution) along the path (0,0) -> (pi,pi) -> (pi,0) -> (0,0) of the
// paper's Figure 5,
// together with the cumulative arc length at each point for plotting.
// The lattice must be square with even linear size so that (pi,pi) and
// (pi,0) are grid points.
func (l *Lattice) SymmetryPath() (idx []int, arc []float64) {
	n := l.Nx
	if l.Ny != n {
		panic("lattice: SymmetryPath requires a square lattice")
	}
	if n%2 != 0 {
		panic("lattice: SymmetryPath requires even linear size")
	}
	half := n / 2
	step := 2 * math.Pi / float64(n)
	var pos float64
	add := func(ix, iy int, ds float64) {
		idx = append(idx, mod(ix, n)+n*mod(iy, n))
		arc = append(arc, pos)
		pos += ds
	}
	// (0,0) -> (pi,pi): diagonal, ds = sqrt(2)*step.
	for i := 0; i < half; i++ {
		add(i, i, math.Sqrt2*step)
	}
	// (pi,pi) -> (pi,0): vertical, ds = step.
	for i := half; i > 0; i-- {
		add(half, i, step)
	}
	// (pi,0) -> (0,0): horizontal, closing the loop at (0,0).
	for i := half; i > 0; i-- {
		add(i, 0, step)
	}
	add(0, 0, 0)
	return idx, arc
}

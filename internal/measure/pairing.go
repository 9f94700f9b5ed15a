package measure

import (
	"questgo/internal/lattice"
	"questgo/internal/mat"
)

// This file implements equal-time pairing correlations, part of QUEST's
// "great variety of physical measurements": the s-wave pair correlation
//
//	P_s(d) = (1/N) sum_r <Delta_{r+d} Delta^dag_r>,
//	Delta_r = c_{r,dn} c_{r,up},
//
// whose uniform sum (the pair structure factor) diagnoses superconducting
// tendencies. For a fixed HS configuration Wick's theorem factorizes the
// four-operator average into a product of the two spin Green's functions:
//
//	<c_{a,dn} c_{a,up} c^dag_{b,up} c^dag_{b,dn}> = Gup(a,b) * Gdn(a,b).
type Pairing struct {
	Lat *lattice.Lattice
	// Ps[d] = (1/N) sum_r <Delta_{r+d} Delta^dag_r>.
	Ps []float64
}

// MeasurePairing computes the s-wave pair correlation map from the two
// spin Green's functions of the current configuration.
func MeasurePairing(lat *lattice.Lattice, gup, gdn *mat.Dense) *Pairing {
	nx, ny := lat.Nx, lat.Ny
	planeN := nx * ny
	n := lat.N()
	p := &Pairing{Lat: lat, Ps: make([]float64, planeN)}
	inv := 1 / float64(n)
	for r := 0; r < n; r++ {
		xr, yr, zr := lat.Coords(r)
		base := zr * planeN
		for jp := 0; jp < planeN; jp++ {
			a := base + jp // a = r + d
			xa, ya, _ := lat.Coords(a)
			dx := modInt(xa-xr, nx)
			dy := modInt(ya-yr, ny)
			p.Ps[dx+nx*dy] += gup.At(a, r) * gdn.At(a, r) * inv
		}
	}
	return p
}

package lapack

import (
	"fmt"
	"math"

	"questgo/internal/mat"
)

// SymEig computes the full eigendecomposition A = Z * diag(d) * Z^T of a
// symmetric matrix. It returns the eigenvalues in ascending order and the
// orthonormal eigenvectors as the columns of Z. The input is not modified.
//
// DQMC needs this once per simulation: the hopping matrix K is symmetric and
// B = exp(-dtau*K), B^{-1} = exp(+dtau*K) are formed from its spectrum. The
// implementation is the classic Householder tridiagonalization (TRED2)
// followed by implicit-shift QL iteration (TQL2), in the EISPACK/JAMA
// formulation.
func SymEig(a *mat.Dense) ([]float64, *mat.Dense) {
	n := a.Rows
	if a.Cols != n {
		panic(fmt.Sprintf("lapack: SymEig expects a square matrix, got %dx%d", a.Rows, a.Cols))
	}
	v := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(v, d, e)
	tql2(v, d, e)
	return d, v
}

// tred2 reduces the symmetric matrix stored in v to tridiagonal form,
// accumulating the orthogonal transformation in v. On return d holds the
// diagonal and e the subdiagonal (e[0] = 0).
func tred2(v *mat.Dense, d, e []float64) {
	n := v.Rows
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
	}
	for i := n - 1; i > 0; i-- {
		scale, h := 0.0, 0.0
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
				v.Set(j, i, 0)
			}
		} else {
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}
			for j := 0; j < i; j++ {
				f = d[j]
				v.Set(j, i, f)
				g = e[j] + v.At(j, j)*f
				for k := j + 1; k <= i-1; k++ {
					g += v.At(k, j) * d[k]
					e[k] += v.At(k, j) * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				f = d[j]
				g = e[j]
				for k := j; k <= i-1; k++ {
					v.Set(k, j, v.At(k, j)-(f*e[k]+g*d[k]))
				}
				d[j] = v.At(i-1, j)
				v.Set(i, j, 0)
			}
		}
		d[i] = h
	}
	// Accumulate transformations.
	for i := 0; i < n-1; i++ {
		v.Set(n-1, i, v.At(i, i))
		v.Set(i, i, 1)
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = v.At(k, i+1) / h
			}
			for j := 0; j <= i; j++ {
				g := 0.0
				for k := 0; k <= i; k++ {
					g += v.At(k, i+1) * v.At(k, j)
				}
				for k := 0; k <= i; k++ {
					v.Set(k, j, v.At(k, j)-g*d[k])
				}
			}
		}
		for k := 0; k <= i; k++ {
			v.Set(k, i+1, 0)
		}
	}
	for j := 0; j < n; j++ {
		d[j] = v.At(n-1, j)
		v.Set(n-1, j, 0)
	}
	v.Set(n-1, n-1, 1)
	e[0] = 0
}

// tql2 diagonalizes the symmetric tridiagonal matrix (d, e) with implicit
// QL iterations, accumulating the rotations into v, and sorts the spectrum
// ascending.
func tql2(v *mat.Dense, d, e []float64) {
	n := v.Rows
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	f, tst1 := 0.0, 0.0
	eps := math.Pow(2, -52)
	for l := 0; l < n; l++ {
		if t := math.Abs(d[l]) + math.Abs(e[l]); t > tst1 {
			tst1 = t
		}
		m := l
		for m < n && math.Abs(e[m]) > eps*tst1 {
			m++
		}
		if m > l {
			for {
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := e[l+1]
				s, s2 := 0.0, 0.0
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					// Accumulate the rotation into the eigenvector matrix.
					ci := v.Col(i)
					ci1 := v.Col(i + 1)
					for k := 0; k < n; k++ {
						h = ci1[k]
						ci1[k] = s*ci[k] + c*h
						ci[k] = c*ci[k] - s*h
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				// Negated, so a spectrum that overflowed to NaN ends the
				// iteration instead of never meeting the test.
				if !(math.Abs(e[l]) > eps*tst1) {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	// Sort eigenvalues ascending, permuting eigenvectors accordingly.
	for i := 0; i < n-1; i++ {
		k := i
		p := d[i]
		for j := i + 1; j < n; j++ {
			if d[j] < p {
				k = j
				p = d[j]
			}
		}
		if k != i {
			d[k] = d[i]
			d[i] = p
			ci, ck := v.Col(i), v.Col(k)
			for r := 0; r < n; r++ {
				ci[r], ck[r] = ck[r], ci[r]
			}
		}
	}
}

// SymExp returns exp(s*A) and exp(-s*A) for a symmetric matrix A via its
// eigendecomposition: exp(sA) = Z diag(e^{s d}) Z^T. Both exponentials share
// one factorization since DQMC always needs B and B^{-1} together.
func SymExp(a *mat.Dense, s float64) (pos, neg *mat.Dense) {
	n := a.Rows
	d, z := SymEig(a)
	pos = expFromEig(z, d, s, n)
	neg = expFromEig(z, d, -s, n)
	return pos, neg
}

func expFromEig(z *mat.Dense, d []float64, s float64, n int) *mat.Dense {
	scaled := z.Clone()
	ex := make([]float64, n)
	for i, v := range d {
		ex[i] = math.Exp(s * v)
	}
	scaled.ScaleCols(ex)
	out := mat.New(n, n)
	// out = scaled * Z^T
	gemmNT(scaled, z, out)
	return out
}

// gemmNT computes out = a * b^T without importing the blas package (which
// would create an import cycle risk if blas ever needs lapack); the matrix
// is formed once per simulation so a simple loop suffices.
func gemmNT(a, b, out *mat.Dense) {
	m, n, k := a.Rows, b.Rows, a.Cols
	for j := 0; j < n; j++ {
		oc := out.Col(j)
		for i := range oc {
			oc[i] = 0
		}
		for kk := 0; kk < k; kk++ {
			f := b.At(j, kk)
			if f == 0 {
				continue
			}
			ac := a.Col(kk)
			for i := 0; i < m; i++ {
				oc[i] += f * ac[i]
			}
		}
	}
}

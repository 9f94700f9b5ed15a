// Package mat provides the column-major dense matrix type shared by the
// BLAS/LAPACK-style kernels and the DQMC code.
//
// Storage is column-major (LAPACK convention): element (i, j) lives at
// Data[i + j*Stride]. The QR-based stratification algorithms at the heart of
// the paper are column oriented — column norms, column pivoting, Householder
// panels — so stride-1 columns keep the hot loops contiguous.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a column-major matrix view over a float64 slice.
type Dense struct {
	Rows   int
	Cols   int
	Stride int // distance between consecutive columns; >= Rows
	Data   []float64
}

// New allocates a zeroed Rows x Cols matrix with a tight stride.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Stride: max(rows, 1), Data: make([]float64, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i+i*m.Stride] = 1
	}
	return m
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Dense {
	m := New(len(d), len(d))
	for i, v := range d {
		m.Data[i+i*m.Stride] = v
	}
	return m
}

// At returns element (i, j). Bounds are checked only by the slice access.
func (m *Dense) At(i, j int) float64 { return m.Data[i+j*m.Stride] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i+j*m.Stride] = v }

// Col returns the stride-1 slice backing column j.
func (m *Dense) Col(j int) []float64 { return m.Data[j*m.Stride : j*m.Stride+m.Rows] }

// View returns a sub-matrix view of rows [i, i+r) and columns [j, j+c)
// sharing storage with m. It must stay inlinable so that views are stack
// values; keep formatting out of the body.
func (m *Dense) View(i, j, r, c int) *Dense {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(viewRangeError{i, j, r, c, m.Rows, m.Cols})
	}
	return &Dense{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[i+j*m.Stride:]}
}

// viewRangeError is the panic value of an out-of-range View.
type viewRangeError struct{ i, j, r, c, rows, cols int }

func (e viewRangeError) Error() string {
	return fmt.Sprintf("mat: view out of range (%d,%d,%d,%d) of %dx%d", e.i, e.j, e.r, e.c, e.rows, e.cols)
}

// Clone returns a deep copy with a tight stride.
func (m *Dense) Clone() *Dense {
	c := New(m.Rows, m.Cols)
	c.CopyFrom(m)
	return c
}

// CopyFrom copies src into m; dimensions must match.
//
//qmc:hot
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: CopyFrom dimension mismatch: dst is %dx%d but src is %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for j := 0; j < m.Cols; j++ {
		copy(m.Col(j), src.Col(j))
	}
}

// Zero sets every element to 0.
func (m *Dense) Zero() {
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = 0
		}
	}
}

// SetIdentity writes the identity into a square matrix.
func (m *Dense) SetIdentity() {
	if m.Rows != m.Cols {
		panic("mat: SetIdentity on non-square matrix")
	}
	m.Zero()
	for i := 0; i < m.Rows; i++ {
		m.Data[i+i*m.Stride] = 1
	}
}

// Transpose returns a newly allocated transpose of m.
func (m *Dense) Transpose() *Dense {
	t := New(m.Cols, m.Rows)
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i, v := range col {
			t.Data[j+i*t.Stride] = v
		}
	}
	return t
}

// Scale multiplies every element by alpha.
func (m *Dense) Scale(alpha float64) {
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] *= alpha
		}
	}
}

// Add accumulates alpha*b into m; dimensions must match.
//
//qmc:hot
func (m *Dense) Add(alpha float64, b *Dense) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("mat: Add dimension mismatch: m is %dx%d but b is %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	for j := 0; j < m.Cols; j++ {
		mc, bc := m.Col(j), b.Col(j)
		for i := range mc {
			mc[i] += alpha * bc[i]
		}
	}
}

// ScaleRows multiplies row i by d[i] (left multiplication by diag(d)).
//
//qmc:hot
func (m *Dense) ScaleRows(d []float64) {
	if len(d) != m.Rows {
		panic(fmt.Sprintf("mat: ScaleRows length mismatch: m has %d rows but len(d)=%d", m.Rows, len(d)))
	}
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] *= d[i]
		}
	}
}

// ScaleCols multiplies column j by d[j] (right multiplication by diag(d)).
//
//qmc:hot
func (m *Dense) ScaleCols(d []float64) {
	if len(d) != m.Cols {
		panic(fmt.Sprintf("mat: ScaleCols length mismatch: m has %d cols but len(d)=%d", m.Cols, len(d)))
	}
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		s := d[j]
		for i := range col {
			col[i] *= s
		}
	}
}

// Diagonal copies the main diagonal into dst (or allocates if dst is nil).
func (m *Dense) Diagonal(dst []float64) []float64 {
	n := min(m.Rows, m.Cols)
	if dst == nil {
		dst = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		dst[i] = m.Data[i+i*m.Stride]
	}
	return dst
}

// FrobNorm returns the Frobenius norm with intermediate scaling to avoid
// overflow for the graded matrices produced by stratification.
func (m *Dense) FrobNorm() float64 {
	var scale, ssq float64 = 0, 1
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			scale, ssq = addSsq(scale, ssq, v)
		}
	}
	return scale * math.Sqrt(ssq)
}

// addSsq folds v into the scaled sum of squares (scale, ssq), whose value is
// scale^2 * ssq: the per-element step of FrobNorm. Zeros leave it unchanged.
func addSsq(scale, ssq, v float64) (float64, float64) {
	if v == 0 {
		return scale, ssq
	}
	a := math.Abs(v)
	if scale < a {
		return a, 1 + ssq*(scale/a)*(scale/a)
	}
	return scale, ssq + (a/scale)*(a/scale)
}

// MaxAbs returns the largest absolute element value.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			if a := math.Abs(v); a > mx {
				mx = a
			}
		}
	}
	return mx
}

// EqualApprox reports whether m and b agree element-wise within tol.
func (m *Dense) EqualApprox(b *Dense, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for j := 0; j < m.Cols; j++ {
		mc, bc := m.Col(j), b.Col(j)
		for i := range mc {
			if math.Abs(mc[i]-bc[i]) > tol {
				return false
			}
		}
	}
	return true
}

// RelDiff returns ||m - b||_F / ||b||_F, the metric of the paper's Figure 2.
// One pass over both matrices, allocating nothing: each difference is
// m + (-1)*b, and both norms fold their elements in FrobNorm's order, so the
// value is bit for bit FrobNorm of the difference matrix over FrobNorm of b.
func RelDiff(m, b *Dense) float64 {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("mat: RelDiff dimension mismatch: m is %dx%d but b is %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	var dScale, dSsq, bScale, bSsq float64 = 0, 1, 0, 1
	for j := 0; j < m.Cols; j++ {
		mc, bc := m.Col(j), b.Col(j)
		for i, v := range bc {
			dScale, dSsq = addSsq(dScale, dSsq, mc[i]+(-1)*v)
			bScale, bSsq = addSsq(bScale, bSsq, v)
		}
	}
	nd := dScale * math.Sqrt(dSsq)
	nb := bScale * math.Sqrt(bSsq)
	if nb == 0 {
		return nd
	}
	return nd / nb
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Dense) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d", m.Rows, m.Cols)
	if m.Rows > 12 || m.Cols > 12 {
		sb.WriteString(" (elided)")
		return sb.String()
	}
	sb.WriteByte('\n')
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&sb, "% 12.5e ", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

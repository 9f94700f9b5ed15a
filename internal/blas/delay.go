package blas

import (
	"fmt"

	"questgo/internal/mat"
)

// The delayed update's pending rank-1 pairs, built on demand. A spin
// sector's m pending pairs U(:, t), W(:, t), pushed in ascending t at the
// sites s_t (ascending in the sweep) with scales σ_t (σ_t = -factor_t on the U side, -1 on
// the W side), are
//
//	U(r, t) = σ^U_t·(G(r, s_t) + Σ_{t'<t} W(s_t, t')·U(r, t'))
//	W(r, t) = σ^W_t·(G(s_t, r) + Σ_{t'<t} U(s_t, t')·W(r, t')) + [r = s_t]
//
// where each sum is AxpyCols's chain: an FMA (in the portable family a
// multiply-add) per t' in ascending order, a ±0 coefficient skipped and a
// NaN one never, then one multiply by σ_t. Those are the bits the eager
// push (one AxpyCols per side at each accepted flip) stores. The
// coefficients are the accumulators' rows at the sites, kept apart as two
// m x m site submatrices, CW(t, t') = W(s_t, t') and CU(t, t') = U(s_t, t')
// for t' < t (the rest is never read), column-major, so CW(:, t') is
// contiguous. So the Metropolis loop, which reads U and W only in the row
// of the site it visits, needs only that row (DelayRows, O(m²)), and the
// rest of both accumulators waits for the flush (DelayFill, parallel over
// the two sectors), which computes every element the loop skipped:
// column t's rows up to s_t, and the rows after the last visited site when
// the block flushes in mid-slice.

// DelayRowsMax is the most pending columns a DelaySector holds: the
// vector kernel keeps a row of each side in registers.
const DelayRowsMax = 32

// A DelaySector is one spin sector's pending delay block in the form the
// on-demand kernels take: its N x N Green's function G and N-row
// accumulators U and W (N x nd, nd <= DelayRowsMax, one stride), and, per
// recorded column t, its site s_t, its scales (SU = -factor on the U side,
// -1 on the W side), its rows of the site submatrices CU(t, :t) and
// CW(t, :t) (column-major at stride DelayRowsMax) and the bits of those
// rows' entries that are not ±0, by column (nzu[t'] bit t: CU(t, t') is
// not ±0), which the vector kernel masks its FMAs with. Record keeps them
// consistent; DelayRows and DelayFill read them. DelayRows also leaves the
// row it stored in lastU and lastW (row last), where Record copies it from:
// the kernel's scattered stores to U and W would stall the loads.
type DelaySector struct {
	g, u, w        *mat.Dense
	last           int
	sites          [DelayRowsMax]int
	su, sw         [DelayRowsMax]float64
	lastU, lastW   [DelayRowsMax]float64
	nzu, nzw       [DelayRowsMax]uint32
	cuData, cwData [DelayRowsMax * DelayRowsMax]float64
}

// NewDelaySector returns an empty block over g, u and w.
func NewDelaySector(g, u, w *mat.Dense) *DelaySector {
	n := g.Rows
	if g.Cols != n || u.Rows != n || w.Rows != n || u.Cols != w.Cols || u.Stride != w.Stride || u.Cols > DelayRowsMax {
		panic(fmt.Sprintf("blas: NewDelaySector bad shape: G %dx%d, U %dx%d (stride %d), W %dx%d (stride %d), at most %d columns",
			g.Rows, g.Cols, u.Rows, u.Cols, u.Stride, w.Rows, w.Cols, w.Stride, DelayRowsMax))
	}
	d := &DelaySector{g: g, u: u, w: w, last: -1}
	for t := range d.sw {
		d.sw[t] = -1
	}
	return d
}

// Record makes the flip at site the block's column m, with U-side scale
// scale (-factor): it stores the site and the scale, and copies row site
// of U and W, columns < m, into row m of CU and CW. That row must be the
// one the last DelayRows call stored (the loop's visit of the site), unless
// m is 0: recording column 0 starts a new block.
//
//qmc:hot
func (d *DelaySector) Record(m, site int, scale float64) {
	if uint(m) >= uint(d.u.Cols) || uint(site) >= uint(d.g.Rows) || m > 0 && site != d.last {
		panic(fmt.Sprintf("blas: DelaySector.Record column %d of %d at site %d of %d, after DelayRows of row %d",
			m, d.u.Cols, site, d.g.Rows, d.last))
	}
	if m == 0 {
		d.nzu, d.nzw = [DelayRowsMax]uint32{}, [DelayRowsMax]uint32{}
	}
	bit := uint32(1) << m
	for t, cu := range d.lastU[:m] {
		cw := d.lastW[t]
		d.cuData[m+t*DelayRowsMax], d.cwData[m+t*DelayRowsMax] = cu, cw
		if cu != 0 { // a NaN too
			d.nzu[t] |= bit
		}
		if cw != 0 {
			d.nzw[t] |= bit
		}
	}
	d.sites[m], d.su[m] = site, scale
}

// DelayRows stores row r of the m recorded columns of both sides of the
// sectors a and b, U(r, t) and W(r, t) for t < m, in ascending t (each
// reads the row's earlier elements). The two sectors must have the same
// shapes and strides; b may be a (one sector). r must not be a recorded
// site: a column's row at its own site carries the unit term and is
// DelayFill's.
//
//qmc:hot
func DelayRows(m, r int, a, b *DelaySector) {
	n := a.g.Rows
	if uint(m) > uint(a.u.Cols) || uint(r) >= uint(n) || b.g.Rows != n || b.u.Cols != a.u.Cols ||
		b.g.Stride != a.g.Stride || b.u.Stride != a.u.Stride {
		panic(fmt.Sprintf("blas: DelayRows bad shape: m=%d r=%d; sector G %dx%d (stride %d), U %d columns (stride %d) against G %dx%d (stride %d), U %d columns (stride %d)",
			m, r, a.g.Rows, a.g.Cols, a.g.Stride, a.u.Cols, a.u.Stride, b.g.Rows, b.g.Cols, b.g.Stride, b.u.Cols, b.u.Stride))
	}
	a.last, b.last = r, r
	if m == 0 {
		return
	}
	delayRows(m, r, a, b)
}

// DelayFill stores the elements of the sector's m recorded columns that
// DelayRows left out, on both sides, in ascending t: column t's rows
// 0..s_t and hi..N-1 (hi = N when every row after the column's site was
// visited), adding the unit term on the W side. Every other row r < hi of
// column t must already hold DelayRows's element.
//
//qmc:hot
func DelayFill(m, hi int, d *DelaySector) {
	n := d.g.Rows
	if uint(m) > uint(d.u.Cols) || uint(hi) > uint(n) {
		panic(fmt.Sprintf("blas: DelayFill bad shape: m=%d hi=%d N=%d, %d columns", m, hi, n, d.u.Cols))
	}
	if m == 0 {
		return
	}
	g, ldg := d.g.Data, d.g.Stride
	delayFill(n, m, hi, g, ldg, d.sites[:m], d.su[:m], d.cwData[:], DelayRowsMax, d.u.Data, d.u.Stride, false)
	delayFill(n, m, hi, g, ldg, d.sites[:m], d.sw[:m], d.cuData[:], DelayRowsMax, d.w.Data, d.w.Stride, true)
}

// delayRowsCols is the body of delayRows built from axpyCols: each element
// is the one-row axpyCols over its row's earlier elements, so its bits are
// the push's in the family axpyCols runs. It serves every family but the
// AVX-512 one.
func delayRowsCols(m, r int, d *DelaySector) {
	g, ldg, ldu := d.g.Data, d.g.Stride, d.u.Stride
	u, w := d.u.Data[r:], d.w.Data[r:]
	for t := 0; t < m; t++ {
		s := d.sites[t]
		axpyCols(1, t, u, ldu, d.cwData[t:], DelayRowsMax, g[r+s*ldg:], 1, d.su[t], u[t*ldu:])
		axpyCols(1, t, w, ldu, d.cuData[t:], DelayRowsMax, g[s+r*ldg:], 1, d.sw[t], w[t*ldu:])
	}
	d.keepRow(m, r)
}

// keepRow copies row r of U and W, columns < m, into lastU and lastW.
func (d *DelaySector) keepRow(m, r int) {
	ldu := d.u.Stride
	for t := range d.lastU[:m] {
		d.lastU[t], d.lastW[t] = d.u.Data[r+t*ldu], d.w.Data[r+t*ldu]
	}
}

// delayFillCols is the body of delayFill built from axpyCols, in the
// families delayRowsCols serves: column t's rows 0..s_t and max(hi,
// s_t+1)..N-1 are one axpyCols call each over the earlier columns, then the
// unit term.
func delayFillCols(n, m, hi int, g []float64, ldg int, sites []int, scale, c []float64, ldc int, a []float64, lda int, rowSide bool) {
	for t := 0; t < m; t++ {
		s := sites[t]
		for _, rg := range [2][2]int{{0, s + 1}, {max(hi, s+1), n}} {
			lo, nr := rg[0], rg[1]-rg[0]
			if nr <= 0 {
				continue
			}
			y0, inc := g[lo+s*ldg:], 1
			if rowSide {
				y0, inc = g[s+lo*ldg:], ldg
			}
			axpyCols(nr, t, a[lo:], lda, c[t:], ldc, y0, inc, scale[t], a[lo+t*lda:])
		}
		if rowSide {
			a[s+t*lda] += 1
		}
	}
}

package lapack

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"questgo/internal/blas"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

// refLarft is the scalar DLARFT the package shipped before T became a
// product of the factorization: every entry through At/Set, the whole panel
// in one go. It is the reference the slice-based larft, the block-merged
// panelT and the T-carrying MulQ/FormQ are held to.
func refLarft(v *mat.Dense, tau []float64, t *mat.Dense) {
	k, m := v.Cols, v.Rows
	for i := 0; i < k; i++ {
		if tau[i] == 0 {
			for j := 0; j <= i; j++ {
				t.Set(j, i, 0)
			}
			continue
		}
		for j := 0; j < i; j++ {
			s := v.At(i, j)
			for r := i + 1; r < m; r++ {
				s += v.At(r, j) * v.At(r, i)
			}
			t.Set(j, i, -tau[i]*s)
		}
		for j := 0; j < i; j++ {
			s := 0.0
			for r := j; r < i; r++ {
				s += t.At(j, r) * t.At(r, i)
			}
			t.Set(j, i, s)
		}
		t.Set(i, i, tau[i])
	}
}

// refFormQ is the former FormQ: Q applied to a full identity, each panel's
// T rebuilt from scratch by refLarft on the way.
func refFormQ(qr *QR) *mat.Dense {
	m, k := qr.A.Rows, len(qr.Tau)
	q := mat.Identity(m)
	wrk := mat.New(2*qrBlock, m)
	for j := (k - 1) / qrBlock * qrBlock; j >= 0 && j < k; j -= qrBlock {
		jb := min(qrBlock, k-j)
		vv := mat.New(m-j, jb)
		copyReflectors(qr.A.View(j, j, m-j, jb), vv)
		tt := mat.New(jb, jb)
		refLarft(vv, qr.Tau[j:j+jb], tt)
		larfb(vv, tt, false, q.View(j, 0, m-j, m), wrk)
	}
	return q
}

func maxAbsDiff(a, b *mat.Dense) float64 {
	d := a.Clone()
	d.Add(-1, b)
	return d.MaxAbs()
}

// TestFormQAcrossPanelShapes walks the panel and sub-panel boundaries of
// the T strip (one short panel, exactly qrInner/qrBlock, one column past,
// several panels, tall inputs whose Q has columns past k) for all three
// factorizations: QRFactor and QRPFactor hand over every T but the last,
// QRPFactorLevel2 none, so the lazy path forms one panel or all of them.
func TestFormQAcrossPanelShapes(t *testing.T) {
	factors := []struct {
		name string
		f    func(a *mat.Dense) (*QR, []int)
	}{
		{"QRFactor", func(a *mat.Dense) (*QR, []int) { return QRFactor(a), nil }},
		{"QRPFactor", QRPFactor},
		{"QRPFactorLevel2", QRPFactorLevel2},
	}
	r := rng.New(41)
	for _, n := range []int{1, 4, 15, 16, 17, 31, 32, 33, 36, 64, 65, 100, 144} {
		for _, m := range []int{n, n + 7, 2 * n} {
			for _, fc := range factors {
				name := fmt.Sprintf("%s %dx%d", fc.name, m, n)
				orig := randomDense(r, m, n)
				qr, jpvt := fc.f(orig.Clone())
				q := mat.New(m, m)
				for i := range q.Data {
					q.Data[i] = math.NaN() // FormQ must write every entry
				}
				qr.FormQ(q)
				qi := mat.Identity(m)
				qr.MulQ(false, qi)
				if d := maxAbsDiff(q, qi); !(d <= 1e-13) {
					t.Errorf("%s: FormQ differs from MulQ(false, I) by %.3e", name, d)
				}
				if d := maxAbsDiff(q, refFormQ(qr)); !(d <= 1e-13) {
					t.Errorf("%s: FormQ differs from the larft-per-call reference by %.3e", name, d)
				}
				if e := orthoError(q); !(e <= 1e-13) {
					t.Errorf("%s: |Q^T Q - I| = %.3e", name, e)
				}
				// Q R = A P, with R embedded in the top n rows.
				rr := mat.New(m, n)
				qr.RInto(rr.View(0, 0, n, n))
				qrm := mat.New(m, n)
				blas.Gemm(false, false, 1, q, rr, 0, qrm)
				ap := orig
				if jpvt != nil {
					ap = mat.New(m, n)
					for j, p := range jpvt {
						copy(ap.Col(j), orig.Col(p))
					}
				}
				if d := maxAbsDiff(qrm, ap); !(d <= 1e-12) {
					t.Errorf("%s: |Q R - A P| = %.3e", name, d)
				}
			}
		}
	}
}

// TestPanelTMatchesLarft: the panel T assembled from geqrPanel's sub-panel
// factors by the block formula equals the whole-panel scalar larft on the
// same V and tau, at widths on both sides of qrInner and with reflectors
// that degenerate to the identity (tau == 0, from zero columns) in the
// first sub-panel, on the boundary and at the end.
func TestPanelTMatchesLarft(t *testing.T) {
	r := rng.New(43)
	for _, m := range []int{32, 40, 100} {
		for _, jb := range []int{5, 16, 17, 20, 32} {
			a := randomDense(r, m, jb)
			zero := []int{3, 16, jb - 1}
			for _, c := range zero {
				if c < jb {
					col := a.Col(c)
					for i := range col {
						col[i] = 0
					}
				}
			}
			tau := make([]float64, jb)
			merged := mat.New(jb, jb)
			geqrPanel(a, tau, mat.New(m, qrBlock), merged, mat.New(2*qrBlock, jb))
			for _, c := range zero {
				if c < jb && tau[c] != 0 {
					t.Fatalf("m=%d jb=%d: zero column %d got tau=%g, want 0", m, jb, c, tau[c])
				}
			}
			vv := mat.New(m, jb)
			copyReflectors(a, vv)
			work := mat.New(2*qrBlock, qrInner)
			panelT(vv, tau, merged, (jb-1)/qrInner*qrInner, work)
			scratch := mat.New(jb, jb)
			panelT(vv, tau, scratch, 0, work)
			want := mat.New(jb, jb)
			refLarft(vv, tau, want)
			if d := maxAbsDiff(merged, want); !(d <= 1e-14) {
				t.Errorf("m=%d jb=%d: T merged from geqrPanel's sub-panel factors differs from larft by %.3e", m, jb, d)
			}
			if d := maxAbsDiff(scratch, want); !(d <= 1e-14) {
				t.Errorf("m=%d jb=%d: T formed from scratch by panelT differs from larft by %.3e", m, jb, d)
			}
		}
	}
}

// TestColumnNormsBitwiseAcrossDispatch: below normsPoolMin the sweep runs
// on the caller, from there on through the pool; either way a norm is one
// Nrm2 of one column, so the bits cannot depend on GOMAXPROCS.
func TestColumnNormsBitwiseAcrossDispatch(t *testing.T) {
	r := rng.New(47)
	var cases []*mat.Dense
	for _, sh := range [][2]int{{36, 36}, {127, 128}, {128, 128}, {144, 144}, {300, 70}} {
		cases = append(cases, randomDense(r, sh[0], sh[1]))
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	want := make([][]float64, len(cases))
	for i, a := range cases {
		want[i] = ColumnNorms(a, nil)
	}
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		for i, a := range cases {
			for j, v := range ColumnNorms(a, nil) {
				if math.Float64bits(v) != math.Float64bits(want[i][j]) {
					t.Errorf("GOMAXPROCS=%d: %dx%d column %d differs from the serial bits", procs, a.Rows, a.Cols, j)
				}
			}
		}
	}
}

package lapack

import (
	"sync"

	"questgo/internal/mat"
)

// Factorization-output pools.
//
// QRFactor/QRPFactor run in the innermost stratification loop (once per
// cluster-UDT step), and their outputs — the scalar reflector factors tau
// and, for the pivoted variant, the permutation vector — used to be
// allocated fresh on every call because they escape in the returned QR.
// The stratification call sites consume both within the same step, so the
// buffers are recycled through package pools instead: the factorizations
// draw from newQR/GetPivot and the call sites hand the storage back with
// QR.Release / PutPivot once the factors are dead. Callers that keep the
// QR (tests, diagnostics) simply never release it and the buffers fall to
// the garbage collector — correctness never depends on the pool.

// tauPool recycles the buffers of released QR factorizations: tau and,
// behind it in the same backing array, the T strip.
var tauPool sync.Pool

// newQR returns the QR header of a factorization of a about to run, with
// its pooled buffer: Tau is the first k = min(m, n) entries — every one is
// written by the factorization, so stale pool contents are never observed —
// and the qrBlock x k strip of compact-WY factors is the k*qrBlock entries
// behind them, zeroed, because only the upper triangles are ever written
// and the GEMMs that apply T read it densely. One buffer means one owner:
// whatever holds Tau holds the strip, and Release returns both.
func newQR(a *mat.Dense) *QR {
	k := min(a.Rows, a.Cols)
	need := k * (1 + qrBlock)
	var buf []float64
	if v, ok := tauPool.Get().(*[]float64); ok && cap(*v) >= need {
		buf = (*v)[:need]
		strip := buf[k:]
		for i := range strip {
			strip[i] = 0
		}
	} else {
		buf = make([]float64, need)
	}
	debugTrackTauGet(buf)
	return &QR{A: a, Tau: buf[:k], t: mat.Dense{Rows: qrBlock, Cols: k, Stride: qrBlock, Data: buf[k:]}}
}

// Release returns the factorization's buffer — tau and the T strip behind
// it — to the package pool and clears the reference. Call it only when the
// QR is dead: after Release the receiver must not be used for
// R/RInto/MulQ/FormQ, which read Tau and the compact-WY factors that went
// with it. The factored matrix A belongs to the caller and is untouched.
// Safe on a nil receiver and idempotent through the nil-out, so defensive
// double-releases on the same receiver are harmless; a double release
// through *aliased copies* of the QR value would pool the same backing
// array twice (two later factorizations would share tau and T storage) and
// is caught by the qmcdebug bookkeeping.
func (qr *QR) Release() {
	if qr == nil || cap(qr.Tau) == 0 {
		return
	}
	t := qr.Tau
	debugTrackTauPut(t)
	tauPool.Put(&t)
	qr.Tau, qr.t, qr.nt = nil, mat.Dense{}, 0
}

// pivotPool recycles the permutation vectors returned by QRPFactor.
var pivotPool sync.Pool

// GetPivot returns a length-n permutation slice with unspecified contents,
// reusing a returned buffer when one is large enough (QRPFactor initializes
// every entry; so must any other caller). Hand it back with PutPivot.
func GetPivot(n int) []int {
	if v, ok := pivotPool.Get().(*[]int); ok && cap(*v) >= n {
		p := (*v)[:n]
		debugTrackPivotGet(p)
		return p
	}
	p := make([]int, n)
	debugTrackPivotGet(p)
	return p
}

// PutPivot returns a permutation vector obtained from QRPFactor,
// QRPFactorLevel2 or GetPivot to the package pool and nils the caller's
// slice, making a second PutPivot through the same variable a no-op. (The previous
// by-value signature made double puts silent: the same backing array
// entered the pool twice and two later factorizations aliased it.) A
// double put through a surviving alias is caught by the qmcdebug
// bookkeeping.
func PutPivot(p *[]int) {
	if p == nil || cap(*p) == 0 {
		return
	}
	s := *p
	debugTrackPivotPut(s)
	pivotPool.Put(&s)
	*p = nil
}

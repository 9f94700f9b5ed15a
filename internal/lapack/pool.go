package lapack

import (
	"sync"

	"questgo/internal/mat"
)

// Factorization-output pools.
//
// QRFactor/QRPFactor run in the innermost stratification loop (once per
// cluster-UDT step), and their outputs — the scalar reflector factors tau
// and, for the pivoted variant, the permutation vector — escape to the
// caller in the returned QR. The stratification call sites consume
// them within the same step, so they are recycled through package pools:
// the factorizations draw from newQR/GetPivot (LUFactor its pivots too) and
// the call sites hand the storage back with QR.Release / PutPivot /
// LU.Release once the factors are dead, and a step allocates nothing.
// Callers that keep a factorization (tests, diagnostics) simply never
// release it and it falls to the garbage collector — correctness never
// depends on the pool.

// tauPool recycles the buffers of released QR factorizations — tau and,
// behind it in the same backing array, the T strip — each in a *[]float64
// box; tauBoxes recycles the emptied boxes, so neither a get nor a put
// allocates once both pools are warm. Only the buffer is pooled: the QR
// header stays its caller's, so a Release through a stale handle finds tau
// already nilled and can never pool a later factorization's storage.
var tauPool, tauBoxes sync.Pool

// newQR returns the QR header of a factorization of a about to run, with
// its pooled buffer: Tau is the first k = min(m, n) entries — every one is
// written by the factorization, so stale pool contents are never observed —
// and the qrBlock x k strip of compact-WY factors is the k*qrBlock entries
// behind them, zeroed, because only the upper triangles are ever written
// and the GEMMs that apply T read it densely. One buffer means one owner:
// whatever holds Tau holds the strip, and Release returns both.
func newQR(a *mat.Dense) *QR {
	qr := &QR{}
	qr.init(a)
	return qr
}

// init readies the fresh header qr for a factorization of a, drawing its
// tau and T strip from tauPool (see newQR).
func (qr *QR) init(a *mat.Dense) {
	k := min(a.Rows, a.Cols)
	need := k * (1 + qrBlock)
	var buf []float64
	if b, ok := tauPool.Get().(*[]float64); ok {
		buf, *b = *b, nil
		tauBoxes.Put(b)
	}
	if cap(buf) < need {
		buf = make([]float64, need)
	} else {
		buf = buf[:need]
		clear(buf[k:])
	}
	debugTrackTauGet(buf)
	qr.A, qr.Tau = a, buf[:k]
	qr.t = mat.Dense{Rows: qrBlock, Cols: k, Stride: qrBlock, Data: buf[k:]}
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
	debugTrackTauPut(qr.Tau)
	b, _ := tauBoxes.Get().(*[]float64)
	if b == nil {
		b = new([]float64)
	}
	*b = qr.Tau
	tauPool.Put(b)
	qr.Tau, qr.t, qr.nt = nil, mat.Dense{}, 0
}

// pivotPool recycles the permutation vectors returned by QRPFactor, each in
// a *[]int box; pivotBoxes recycles the emptied boxes, so neither a get nor
// a put allocates once both pools are warm.
var pivotPool, pivotBoxes sync.Pool

// GetPivot returns a length-n permutation slice with unspecified contents,
// reusing a returned buffer when one is large enough (QRPFactor initializes
// every entry; so must any other caller). Hand it back with PutPivot.
func GetPivot(n int) []int {
	var p []int
	if b, ok := pivotPool.Get().(*[]int); ok {
		p, *b = *b, nil
		pivotBoxes.Put(b)
	}
	if cap(p) < n {
		p = make([]int, n)
	}
	p = p[:n]
	debugTrackPivotGet(p)
	return p
}

// PutPivot returns a permutation vector obtained from QRPFactor,
// QRPFactorLevel2, LUFactor or GetPivot to the package pool and nils the caller's
// slice, making a second PutPivot through the same variable a no-op. (The previous
// by-value signature made double puts silent: the same backing array
// entered the pool twice and two later factorizations aliased it.) A
// double put through a surviving alias is caught by the qmcdebug
// bookkeeping.
func PutPivot(p *[]int) {
	if p == nil || cap(*p) == 0 {
		return
	}
	debugTrackPivotPut(*p)
	b, _ := pivotBoxes.Get().(*[]int)
	if b == nil {
		b = new([]int)
	}
	*b = *p
	pivotPool.Put(b)
	*p = nil
}

//go:build qmcdebug

package lapack

import (
	"fmt"
	"sync"
)

// DebugPool reports whether factorization-pool double-put bookkeeping is
// compiled in (qmcdebug builds only).
const DebugPool = true

// Mirrors internal/mat's scratch bookkeeping: a checked-out set keyed by
// backing-array identity (&s[0] survives reslicing, which is how the pools
// hand buffers back out). A Put of storage that is already pooled is the
// use-after-free precursor the sanitizer exists to catch — the next Get
// would hand two owners the same backing array. A QR's T strip lives behind
// its tau in one buffer (newQR), so the tau entry covers both.
var (
	poolMu    sync.Mutex
	tauLive   = map[*float64]bool{} // true = checked out, false = in pool
	pivotLive = map[*int]bool{}
)

func debugTrackTauGet(t []float64) {
	if len(t) == 0 {
		return
	}
	poolMu.Lock()
	tauLive[&t[0]] = true
	poolMu.Unlock()
}

func debugTrackTauPut(t []float64) {
	if len(t) == 0 {
		return
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if live, seen := tauLive[&t[0]]; seen && !live {
		panic(fmt.Sprintf("lapack: QR.Release double put of len-%d tau buffer", len(t)))
	}
	tauLive[&t[0]] = false
}

func debugTrackPivotGet(p []int) {
	if len(p) == 0 {
		return
	}
	poolMu.Lock()
	pivotLive[&p[0]] = true
	poolMu.Unlock()
}

func debugTrackPivotPut(p []int) {
	if len(p) == 0 {
		return
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if live, seen := pivotLive[&p[0]]; seen && !live {
		panic(fmt.Sprintf("lapack: PutPivot double put of len-%d pivot buffer", len(p)))
	}
	pivotLive[&p[0]] = false
}

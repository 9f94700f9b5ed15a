// Ablation tests for two design choices the paper fixes by fiat — the
// delayed-update block size and pre-pivoting (Algorithm 3) over per-step
// pivoting (Algorithm 2) inside a full sweep — asserted on the operation
// counters the sweep already charges, over a fixed seed, never on wall
// clock. (The cluster-size and wrap-limit trade-offs are recorded by Figure
// 2 and by the greens.max_wrap_drift ledger metric.)
package questgo

import (
	"testing"

	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/obs"
	"questgo/internal/rng"
	"questgo/internal/update"
)

// ablationSweeps runs the same Markov chain (8x8, U = 4, beta = 2, L = 20,
// fixed field and RNG seeds) for two sweeps under opts and returns the
// operation counts those sweeps charged and the flips they accepted. The
// counters are process-global, so the tests below must not run in parallel.
func ablationSweeps(t *testing.T, opts update.Options) (obs.OpCounts, int64) {
	t.Helper()
	model, err := hubbard.NewModel(lattice.NewSquare(8, 8, 1), 4, 0, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	field := hubbard.NewRandomField(20, model.N(), rng.New(9))
	sw := update.NewSweeper(hubbard.NewPropagator(model), field, rng.New(11), opts)
	before := obs.Counts()
	sw.Sweep()
	sw.Sweep()
	accepted, _ := sw.Counters()
	return obs.Counts().Sub(before), accepted
}

// TestAblation_DelayBlockSize: nd = 1 degenerates to one rank-1 (GER-speed)
// update per accepted flip; nd = 32 turns the same accepted flips into
// strictly fewer, GEMM-shaped flushes.
func TestAblation_DelayBlockSize(t *testing.T) {
	one, acc1 := ablationSweeps(t, update.Options{ClusterK: 10, Delay: 1})
	blk, acc32 := ablationSweeps(t, update.Options{ClusterK: 10, Delay: 32})
	if acc1 != acc32 || acc1 == 0 {
		t.Fatalf("accepted flips differ or vanish: %d at nd=1, %d at nd=32", acc1, acc32)
	}
	f1, f32 := one[obs.OpDelayedFlushes], blk[obs.OpDelayedFlushes]
	if f1 != 2*acc1 {
		t.Errorf("nd=1: %d flushes for %d accepted flips in two spin sectors, want one per flip and sector", f1, acc1)
	}
	if f32 >= f1 {
		t.Errorf("nd=32 charged %d flushes, nd=1 %d: blocking must flush strictly less often", f32, f1)
	}
	t.Logf("%d accepted flips: %d flushes at nd=1, %d at nd=32", acc1, f1, f32)
}

// TestAblation_PrePivotVsQRP: Algorithm 3 pivots once per chain and runs
// every other UDT step on the unpivoted blocked QR, so against Algorithm 2
// it charges strictly fewer pivoted factorizations and exactly as many more
// unpivoted ones — the paper's headline kernel trade, counted inside a
// sweep.
func TestAblation_PrePivotVsQRP(t *testing.T) {
	alg2, _ := ablationSweeps(t, update.Options{ClusterK: 10, PrePivot: false})
	alg3, _ := ablationSweeps(t, update.Options{ClusterK: 10, PrePivot: true})
	qrp2, qrp3 := alg2[obs.OpQRPFactorizations], alg3[obs.OpQRPFactorizations]
	qr2, qr3 := alg2[obs.OpQRFactorizations], alg3[obs.OpQRFactorizations]
	if qrp3 >= qrp2 {
		t.Errorf("Alg 3 charged %d pivoted factorizations, Alg 2 %d: want strictly fewer", qrp3, qrp2)
	}
	if qr3-qr2 != qrp2-qrp3 {
		t.Errorf("Alg 3 trades %d QRP for %d QR: the factorization count must be unchanged (QR %d -> %d, QRP %d -> %d)",
			qrp2-qrp3, qr3-qr2, qr2, qr3, qrp2, qrp3)
	}
	t.Logf("two sweeps: Alg 2 QR %d + QRP %d, Alg 3 QR %d + QRP %d", qr2, qrp2, qr3, qrp3)
}

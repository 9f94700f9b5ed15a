// Ablation benchmarks for the design choices DESIGN.md calls out: the
// delayed-update block size, the matrix clustering size k (speed vs
// stability trade-off), and pre-pivoting vs per-step pivoting inside a full
// sweep. These go beyond the paper's figures; they quantify why the paper's
// defaults (k = 10, blocked delays, Algorithm 3) are the right ones.
package questgo

import (
	"fmt"
	"testing"

	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/rng"
	"questgo/internal/update"
)

func benchSetup(b *testing.B, nx int, u, beta float64, l int) (*hubbard.Propagator, *hubbard.Field) {
	b.Helper()
	lat := lattice.NewSquare(nx, nx, 1)
	model, err := hubbard.NewModel(lat, u, 0, beta, l)
	if err != nil {
		b.Fatal(err)
	}
	prop := hubbard.NewPropagator(model)
	field := hubbard.NewRandomField(l, model.N(), rng.New(9))
	return prop, field
}

// BenchmarkAblation_DelayBlockSize sweeps the delayed-update block nd.
// nd = 1 degenerates to plain rank-1 (GER-speed) updates; larger blocks
// convert the same flops into GEMM calls.
func BenchmarkAblation_DelayBlockSize(b *testing.B) {
	for _, nd := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("nd=%d", nd), func(b *testing.B) {
			prop, field := benchSetup(b, 8, 4, 2, 20)
			sw := update.NewSweeper(prop, field, rng.New(11), update.Options{ClusterK: 10, Delay: nd})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.Sweep()
			}
		})
	}
}

// BenchmarkAblation_ClusterSize sweeps the clustering size k: larger k
// means fewer QR factorizations per Green's evaluation (faster) but a more
// ill-conditioned cluster product (less accurate). The accuracy metric is
// the relative difference between the k-clustered and the k=1 evaluation.
func BenchmarkAblation_ClusterSize(b *testing.B) {
	prop, field := benchSetup(b, 6, 6, 6, 40)
	ref := greens.NewClusterSet(prop, field, hubbard.Up, 1).GreenAt(0, true)
	for _, k := range []int{1, 2, 5, 10, 20} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			cs := greens.NewClusterSet(prop, field, hubbard.Up, k)
			var g *mat.Dense
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g = cs.GreenAt(0, true)
			}
			b.StopTimer()
			b.ReportMetric(mat.RelDiff(g, ref)*1e12, "err-vs-k1-e12")
		})
	}
}

// BenchmarkAblation_PrePivotVsQRP compares full-sweep cost under the two
// stratification variants — the end-to-end view of the paper's headline
// micro-benchmark.
func BenchmarkAblation_PrePivotVsQRP(b *testing.B) {
	for _, pre := range []bool{false, true} {
		name := "alg2-qrp"
		if pre {
			name = "alg3-prepivot"
		}
		b.Run(name, func(b *testing.B) {
			prop, field := benchSetup(b, 8, 4, 2, 20)
			sw := update.NewSweeper(prop, field, rng.New(13), update.Options{ClusterK: 10, PrePivot: pre})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.Sweep()
			}
		})
	}
}

// BenchmarkAblation_WrapDrift measures how the wrapped Green's function
// drifts from its stratified recomputation as the wrap count grows — the
// justification for the paper's l = 10 rewrapping limit.
func BenchmarkAblation_WrapDrift(b *testing.B) {
	for _, wraps := range []int{5, 10, 20, 40} {
		b.Run(fmt.Sprintf("wraps=%d", wraps), func(b *testing.B) {
			prop, field := benchSetup(b, 6, 6, 4, 40)
			cs := greens.NewClusterSet(prop, field, hubbard.Up, wraps)
			w := greens.NewWrapper(prop)
			var drift float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := cs.GreenAt(0, true)
				for s := 0; s < wraps; s++ {
					w.Wrap(g, field, hubbard.Up, s)
				}
				fresh := cs.GreenAt(1%cs.NC, true)
				if d := mat.RelDiff(g, fresh); d > drift {
					drift = d
				}
			}
			b.StopTimer()
			b.ReportMetric(drift*1e12, "drift-e12")
		})
	}
}

//go:build amd64 && !purego

package blas

import (
	"math"
	"testing"

	"questgo/internal/rng"
)

// asmKernels are the assembly micro-kernels, each with the width of the
// 8-row tile it computes. A CPU that selected the nr-wide kernel can run
// every narrower one.
var asmKernels = []struct {
	name string
	nr   int
	run  func(kc int64, a, b, c *float64, ldc int64)
}{
	{"dgemm8x4asm", 4, dgemm8x4asm},
	{"dgemm8x8asm", 8, dgemm8x8asm},
}

// TestAsmMicroKernelTile drives each assembly micro-kernel on bare packed
// panels, away from the blocking around it: the 8 x nr tile must be the FMA
// chain over k from zero plus one add into C, bit for bit; nothing outside
// the tile may change when ldc is wider than it; kc = 0 must add exactly
// zero; the panels must not be read past kc (NaN sits behind them); and a
// non-finite row of a or column of b must stay in that row or column of C.
func TestAsmMicroKernelTile(t *testing.T) {
	const mr, ldc = 8, 11
	for _, kern := range asmKernels {
		if kernMR != 8 || kernNR < kern.nr {
			t.Logf("%s: skipped, the CPU does not offer it", kern.name)
			continue
		}
		nr := kern.nr
		for _, kc := range []int{0, 1, 2, 7, 64, gemmKC} {
			r := rng.New(uint64(kc) + 41)
			_, a := vecOperand(r, 1, kc*mr, math.NaN())
			_, b := vecOperand(r, 2, kc*nr, math.NaN())
			cback, c := vecOperand(r, 3, ldc*nr, sentinel)
			// The tile is the first mr entries of each of nr columns; the
			// ldc-mr entries under each column are not the kernel's.
			want := append([]float64(nil), c...)
			for q := 0; q < nr; q++ {
				for i := 0; i < mr; i++ {
					acc := 0.0
					for k := 0; k < kc; k++ {
						acc = math.FMA(a[k*mr+i], b[k*nr+q], acc)
					}
					want[q*ldc+i] += acc
				}
			}
			// One past the last element keeps &x[0] legal at kc = 0.
			kern.run(int64(kc), &a[:1][0], &b[:1][0], &c[0], ldc)
			if !untouched(cback, 3, ldc*nr, sentinel) {
				t.Fatalf("%s kc=%d: wrote outside the C window", kern.name, kc)
			}
			if !bitsEqual(c, want) {
				t.Fatalf("%s kc=%d: tile is not the FMA chain over k plus C, or entries outside the tile moved", kern.name, kc)
			}
		}

		// Lanes do not mix: row 3 of a is NaN, column nr-1 of b is +Inf.
		const kc = 5
		r := rng.New(43)
		_, a := vecOperand(r, 0, kc*mr, math.NaN())
		_, b := vecOperand(r, 0, kc*nr, math.NaN())
		c := make([]float64, mr*nr)
		for k := 0; k < kc; k++ {
			a[k*mr+3] = math.NaN()
			b[k*nr+nr-1] = math.Inf(1)
		}
		kern.run(kc, &a[0], &b[0], &c[0], mr)
		for q := 0; q < nr; q++ {
			for i := 0; i < mr; i++ {
				v := c[q*mr+i]
				finite := !math.IsNaN(v) && !math.IsInf(v, 0)
				if finite != (i != 3 && q != nr-1) {
					t.Fatalf("%s: C(%d,%d) = %v with a NaN row 3 of a and an Inf column %d of b", kern.name, i, q, v, nr-1)
				}
			}
		}
	}
}

// Command figures regenerates the paper's evaluation, one generator per
// figure:
//
//	-fig=1   dense kernel throughput: DGEMM, DGEQRF, level-2 and blocked
//	         DGEQP3 vs matrix size (-json appends the series as
//	         benchutil.Record lines, the BENCH_gemm.json record)
//	-fig=2   box-and-whisker summary of ||G - G~||_F/||G||_F between the
//	         QRP (Algorithm 2) and pre-pivoted (Algorithm 3) stratification
//	-fig=3   Figures 3 and 4: time and GFlop/s of one Green's function
//	         evaluation vs N, against DGEMM and DGEQRF at the same size
//	-fig=5   momentum distribution <n_k> along the symmetry path
//	         (0,0) -> (pi,pi) -> (pi,0) -> (0,0) for several lattice sizes
//	-fig=6   <n_k> on the full momentum grid (the paper's color contour
//	         data), rendered as data + ASCII map
//	-fig=7   C_zz(r) maps (AF checkerboard)
//	-fig=8   Figure 8 and Table I: full-simulation wall time vs N against
//	         the nominal N^3 law, and the per-phase time percentages
//	-fig=9   modeled GFlop/s of matrix clustering (Algorithm 4) and
//	         wrapping (Algorithm 6) on the simulated device (internal/gpu:
//	         host arithmetic, Tesla-C2050-calibrated clock) vs device DGEMM
//	-fig=10  hybrid Green's function evaluation: device clusters + host
//	         pre-pivoted stratification
//
// -fig takes a comma-separated list. Every flag left unset takes the
// figure's own default from the table below, scaled down from the paper's
// sizes for quick runs; reproduce.sh shows the paper-scale parameters.
// -sizes means matrix order for Figure 1, site count N (a perfect square)
// for Figures 3, 4, 8, 9 and 10, and linear lattice size for Figures 5-7.
//
// Usage:
//
//	figures -fig=1 [-sizes 128,256,512,1024] [-reps 3] [-json BENCH_gemm.json]
//	figures -fig=2 [-nx 8] [-l 40] [-evals 200] [-us 2,3,4,5,6,7,8] [-k 10]
//	figures -fig=3 [-sizes 64,100,144,256] [-l 40] [-k 10] [-reps 2]
//	figures -fig=5 [-sizes 8,12] [-u 2] [-beta 4] [-l 20] [-warm 50]
//	        [-meas 100] [-out dir]
//	figures -fig=8 [-sizes 16,36,64,100] [-l 24] [-warm 10] [-meas 20]
//	figures -fig=9 [-sizes 64,144,256,576,1024] [-k 10]
//	figures -fig=10 [-sizes 64,144,256] [-l 160] [-k 10]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"questgo/internal/benchutil"
	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

// params is one figure's resolved command line.
type params struct {
	sizes                  []int
	l, k, reps, warm, meas int
	nx, evals              int
	us                     []int
	u, beta                float64
	seed                   uint64
	json, out              string
}

// figures is the per-figure defaults table: the values the flags that
// differ between figures take when left unset, and the generator.
var figures = map[int]struct {
	sizes               string
	l, reps, warm, meas int
	draw                func(params)
}{
	1:  {sizes: "128,256,384,512,768,1024", reps: 3, draw: figure1},
	2:  {l: 40, draw: figure2},
	3:  {sizes: "64,100,144,256", l: 40, reps: 2, draw: figures3and4},
	5:  {sizes: "8,12", l: 20, warm: 50, meas: 100, draw: figure5},
	6:  {sizes: "8,12", l: 20, warm: 50, meas: 100, draw: figure6},
	7:  {sizes: "8,12", l: 20, warm: 50, meas: 100, draw: figure7},
	8:  {sizes: "16,36,64,100", l: 24, warm: 10, meas: 20, draw: figure8},
	9:  {sizes: "64,144,256,576,1024", draw: figure9},
	10: {sizes: "64,144,256,576,1024", l: 160, draw: figure10},
}

func main() {
	figFlag := flag.String("fig", "5", "figures to regenerate, comma-separated (1,2,3,5,6,7,8,9,10; 3 prints 3+4, 8 prints 8 + Table I)")
	sizesFlag := flag.String("sizes", "", "sizes (default per figure)")
	l := flag.Int("l", 0, "time slices (default per figure; paper: 160)")
	reps := flag.Int("reps", 0, "minimum repetitions per timing (Figures 1, 3, 4; default per figure)")
	warm := flag.Int("warm", 0, "warmup sweeps (Figures 5-8; default per figure; paper: 1000)")
	meas := flag.Int("meas", 0, "measurement sweeps (Figures 5-8; default per figure; paper: 2000)")
	k := flag.Int("k", 10, "matrix clustering size (Figures 2, 3, 4, 9, 10)")
	u := flag.Float64("u", 2, "interaction strength (Figures 5-8; paper: 2)")
	beta := flag.Float64("beta", 4, "inverse temperature (Figures 5-7; paper: 32)")
	seed := flag.Uint64("seed", 1, "RNG seed (Figures 2, 5-7)")
	nx := flag.Int("nx", 8, "linear lattice size (Figure 2; paper: 16)")
	evals := flag.Int("evals", 200, "Green's function evaluations per U (Figure 2; paper: 1000)")
	usFlag := flag.String("us", "2,3,4,5,6,7,8", "interaction strengths (Figure 2)")
	jsonPath := flag.String("json", "", "append one benchutil.Record JSON line per kernel and size to this file (Figure 1)")
	out := flag.String("out", "", "directory for data files (Figures 5-7; default: stdout only)")
	flag.Parse()

	figs, err := benchutil.ParseSizes(*figFlag)
	if err != nil {
		fatal(err)
	}
	us, err := benchutil.ParseSizes(*usFlag)
	if err != nil {
		fatal(err)
	}
	for _, fig := range figs {
		if _, ok := figures[fig]; !ok {
			fatal(fmt.Errorf("unknown figure %d", fig))
		}
	}
	for i, fig := range figs {
		def := figures[fig]
		p := params{
			l: orDefault(*l, def.l), reps: orDefault(*reps, def.reps),
			warm: orDefault(*warm, def.warm), meas: orDefault(*meas, def.meas),
			k: *k, nx: *nx, evals: *evals, us: us, u: *u, beta: *beta, seed: *seed,
			json: *jsonPath, out: *out,
		}
		if sizes := orDefault(*sizesFlag, def.sizes); sizes != "" {
			if p.sizes, err = benchutil.ParseSizes(sizes); err != nil {
				fatal(err)
			}
		}
		if i > 0 {
			fmt.Println()
		}
		def.draw(p)
	}
}

// orDefault returns v unless the flag was left at its zero value.
func orDefault[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}

// writeFile saves one figure's data series under -out.
func writeFile(dir, name, content string) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

// green is greens.Green over one of the figures' chains, all regular: a
// singular final solve ends the run.
func green(bs []*mat.Dense, prePivot bool) *mat.Dense {
	g, err := greens.Green(bs, prePivot)
	if err != nil {
		fatal(err)
	}
	return g
}

// squareSide returns the linear size of an N-site square lattice, reporting
// a skipped size when N is not a perfect square.
func squareSide(n int) (nx int, ok bool) {
	nx = int(math.Round(math.Sqrt(float64(n))))
	if nx*nx != n {
		fmt.Fprintf(os.Stderr, "skipping N=%d (not a perfect square)\n", n)
		return 0, false
	}
	return nx, true
}

// setup builds the half-filled nx x nx Hubbard propagator and a random
// auxiliary field drawn from r: the state every kernel-level figure
// (2, 3, 4, 9, 10) measures from.
func setup(nx int, u, beta float64, l int, r *rng.Rand) (*hubbard.Propagator, *hubbard.Field) {
	model, err := hubbard.NewModel(lattice.NewSquare(nx, nx, 1), u, 0, beta, l)
	if err != nil {
		fatal(err)
	}
	return hubbard.NewPropagator(model), hubbard.NewRandomField(l, model.N(), r)
}

func randomMatrix(r *rng.Rand, n int) *mat.Dense {
	m := mat.New(n, n)
	for j := 0; j < n; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = 2*r.Float64() - 1
		}
	}
	return m
}

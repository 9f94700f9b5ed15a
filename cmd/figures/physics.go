package main

import (
	"fmt"
	"os"
	"strings"

	"questgo"
)

// simulate runs one full DQMC simulation per linear size: the data behind
// Figures 5-7 (rho = 1; the paper uses U = 2, beta = 32, L = 160).
func simulate(p params) map[int]*questgo.Results {
	for _, nx := range p.sizes {
		if nx%2 != 0 {
			fatal(fmt.Errorf("lattice size %d must be even", nx))
		}
	}
	results := make(map[int]*questgo.Results)
	for _, nx := range p.sizes {
		cfg := questgo.DefaultConfig()
		cfg.Nx, cfg.Ny = nx, nx
		cfg.U = p.u
		cfg.Beta = p.beta
		cfg.L = p.l
		cfg.WarmSweeps, cfg.MeasSweeps = p.warm, p.meas
		cfg.Seed = p.seed
		sim, err := questgo.NewSimulation(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "running %dx%d (U=%g beta=%g L=%d)...\n", nx, nx, p.u, p.beta, p.l)
		results[nx] = sim.Run()
	}
	return results
}

func figure5(p params) {
	results := simulate(p)
	fmt.Println("Figure 5: <n_k> along (0,0) -> (pi,pi) -> (pi,0) -> (0,0)")
	for _, nx := range p.sizes {
		res := results[nx]
		sim, _ := questgo.NewSimulation(res.Config) // rebuild lattice for the path
		idx, arc := sim.Lattice().SymmetryPath()
		fmt.Printf("\n# %dx%d lattice: arc  n(k)  err\n", nx, nx)
		var sb strings.Builder
		for i, id := range idx {
			line := fmt.Sprintf("%8.4f  %8.5f  %.5f", arc[i], res.Nk[id], res.NkErr[id])
			fmt.Println(line)
			sb.WriteString(line + "\n")
		}
		writeFile(p.out, fmt.Sprintf("fig5_nk_path_%dx%d.dat", nx, nx), sb.String())
	}
	fmt.Println("\nExpected shape (paper): n(k) ~1 near (0,0), sharp drop near the")
	fmt.Println("midpoint of (0,0)->(pi,pi) (the Fermi surface at half filling),")
	fmt.Println("~0 at (pi,pi); larger lattices resolve the drop more finely.")
}

func figure6(p params) {
	results := simulate(p)
	fmt.Println("Figure 6: <n_k> on the full momentum grid")
	for _, nx := range p.sizes {
		res := results[nx]
		fmt.Printf("\n# %dx%d lattice (rows ky, cols kx, grid order)\n", nx, nx)
		var sb strings.Builder
		for ky := 0; ky < nx; ky++ {
			cells := make([]string, nx)
			for kx := 0; kx < nx; kx++ {
				cells[kx] = fmt.Sprintf("%6.3f", res.Nk[kx+nx*ky])
			}
			line := strings.Join(cells, " ")
			fmt.Println(line)
			sb.WriteString(line + "\n")
		}
		fmt.Println("\nASCII contour (# filled, . empty):")
		fmt.Print(asciiMap(res.Nk, nx, 0.5))
		writeFile(p.out, fmt.Sprintf("fig6_nk_grid_%dx%d.dat", nx, nx), sb.String())
	}
	fmt.Println("\nExpected shape (paper): filled diamond around (0,0) bounded by the")
	fmt.Println("|kx|+|ky| = pi Fermi surface; the larger grid resolves it sharply.")
}

func figure7(p params) {
	results := simulate(p)
	fmt.Println("Figure 7: C_zz(r) spin-spin correlation maps")
	for _, nx := range p.sizes {
		res := results[nx]
		fmt.Printf("\n# %dx%d lattice (rows dy, cols dx)\n", nx, nx)
		var sb strings.Builder
		for dy := 0; dy < nx; dy++ {
			cells := make([]string, nx)
			for dx := 0; dx < nx; dx++ {
				cells[dx] = fmt.Sprintf("%+8.4f", res.Czz[dx+nx*dy])
			}
			line := strings.Join(cells, " ")
			fmt.Println(line)
			sb.WriteString(line + "\n")
		}
		fmt.Println("\nSign checkerboard (+/-):")
		for dy := 0; dy < nx; dy++ {
			var row strings.Builder
			for dx := 0; dx < nx; dx++ {
				if res.Czz[dx+nx*dy] >= 0 {
					row.WriteByte('+')
				} else {
					row.WriteByte('-')
				}
			}
			fmt.Println(row.String())
		}
		fmt.Printf("S(pi,pi) = %.4f +- %.4f\n", res.SAF, res.SAFErr)
		writeFile(p.out, fmt.Sprintf("fig7_czz_%dx%d.dat", nx, nx), sb.String())
	}
	fmt.Println("\nExpected shape (paper): antiferromagnetic checkerboard — C_zz")
	fmt.Println("alternates sign with |dx+dy| parity; amplitude decays with distance.")
}

func asciiMap(v []float64, nx int, threshold float64) string {
	var sb strings.Builder
	for ky := 0; ky < nx; ky++ {
		for kx := 0; kx < nx; kx++ {
			if v[kx+nx*ky] >= threshold {
				sb.WriteByte('#')
			} else {
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

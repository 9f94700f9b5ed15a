// Command qmclint runs the repo-specific static-analysis suite over the
// given packages (default ./...) and exits 1 on any diagnostic, 2 when the
// packages cannot be loaded and type-checked. reproduce.sh runs it as part
// of the verify block, next to go vet.
//
// Usage:
//
//	go run ./cmd/qmclint [-run name,name] [-list] [packages...]
//
// The files analysed are the ones `go list` selects, so a tagged build is
// linted with GOFLAGS, e.g. GOFLAGS=-tags=purego go run ./cmd/qmclint ./internal/blas.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"questgo/internal/analysis"
)

func main() {
	runNames := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *runNames != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, n := range strings.Split(*runNames, ",") {
			a, ok := byName[strings.TrimSpace(n)]
			if !ok {
				fatal(fmt.Errorf("unknown analyzer %q (use -list)", n))
			}
			analyzers = append(analyzers, a)
		}
	}

	pkgs, err := analysis.Load(".", flag.Args()...)
	if err != nil {
		fatal(err)
	}
	diags, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "qmclint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

// fatal reports a failure to analyse at all, as distinct from a finding.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "qmclint: %v\n", err)
	os.Exit(2)
}

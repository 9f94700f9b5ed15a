package analysis

import (
	"go/ast"
	"strings"
)

// ObsCharge keeps the internal/obs operation counters honest in three
// directions:
//
//  1. A function annotated `//qmc:charges Op1[,Op2]` must actually charge
//     each listed counter in its body (obs.Add(obs.OpX, ...), or
//     obs.AddGemm for the OpGemmCalls/OpGemmFlops pair).
//  2. The known kernel entry points (registry below) must carry the
//     annotation — adding a new GEMM path that forgets to charge flops
//     fails the build instead of silently rotting the metrics document.
//  3. Inside the kernel packages, no counter may be charged from a
//     function that lacks the annotation, so the annotations stay in sync
//     with the code.
//
// obscharge diagnostic formats.
const (
	msgObsNotCharged    = "%s declares //qmc:charges %s but never calls obs.Add(obs.%s, ...)%s"
	msgObsMissingAnnot  = "kernel entry point %s must be annotated //qmc:charges %s (and charge it)"
	msgObsUndeclCharges = "%s charges obs counters without a //qmc:charges annotation (charges: %s)"
)

var ObsCharge = &Analyzer{
	Name: "obscharge",
	Doc:  "kernel entry points must charge their internal/obs counters",
	Messages: []string{
		msgObsNotCharged,
		msgObsMissingAnnot,
		msgObsUndeclCharges,
	},
	Run: runObsCharge,
}

// obsKernelRegistry lists, per kernel package, the functions that *must*
// be annotated (and therefore charge): the operations the paper's Table I
// profile and the JSON metrics document are derived from. A "Type.Method"
// key binds one receiver's method; a bare name binds every function or
// method of that name in the package.
var obsKernelRegistry = map[string]map[string]string{
	pkgBlas: {
		"Gemm": "OpGemmCalls",
	},
	pkgLapack: {
		"QRFactor":        "OpQRFactorizations",
		"QRPFactor":       "OpQRPFactorizations",
		"QRPFactorLevel2": "OpQRPFactorizations",
	},
	pkgGreens: {
		"Wrap":     "OpWraps",
		"gradedQR": "OpUDTSteps",
	},
	pkgUpdate: {
		"flush": "OpDelayedFlushes",
		"Sweep": "OpSweeps",
	},
	pkgGPU: {
		"chargeTransfer": "OpDeviceBytes",
		"chargeKernel":   "OpDeviceKernels",
		// The device backend's Wrap delegates here; its Flush is charged by
		// the one update.spinState.flush.
		"Accelerator.Wrap": "OpWraps",
		"Replay":           "OpGraphReplays",
	},
}

// obsChargePackages is where rule 3 (no unannotated charges) applies.
var obsChargePackages = map[string]bool{
	pkgBlas:   true,
	pkgLapack: true,
	pkgGreens: true,
	pkgUpdate: true,
	pkgGPU:    true,
}

func runObsCharge(pass *Pass) error {
	registry := obsKernelRegistry[pass.PkgPath]
	pass.Funcs(func(fd *ast.FuncDecl) {
		declared, annotated := directiveArgs(fd.Doc, "//qmc:charges")
		charged := chargedOps(pass, fd)

		if annotated {
			for _, op := range declared {
				if !charged[op] {
					pass.Reportf(fd.Pos(), msgObsNotCharged,
						fd.Name.Name, op, op, gemmHint(op))
				}
			}
			return
		}
		op, required := registry[recvTypeName(fd)+"."+fd.Name.Name]
		if !required {
			op, required = registry[fd.Name.Name]
		}
		if required {
			pass.Reportf(fd.Pos(), msgObsMissingAnnot, fd.Name.Name, op)
		}
		if len(charged) > 0 && obsChargePackages[pass.PkgPath] {
			ops := make([]string, 0, len(charged))
			for op := range charged {
				ops = append(ops, op)
			}
			pass.Reportf(fd.Pos(), msgObsUndeclCharges,
				fd.Name.Name, strings.Join(ops, ","))
		}
	})
	return nil
}

func gemmHint(op string) string {
	if op == "OpGemmCalls" || op == "OpGemmFlops" {
		return " (obs.AddGemm also satisfies it)"
	}
	return ""
}

// chargedOps returns the set of obs counter names fd's body charges.
// obs.AddGemm counts as charging both OpGemmCalls and OpGemmFlops.
func chargedOps(pass *Pass, fd *ast.FuncDecl) map[string]bool {
	ops := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		path, name := pass.pkgSelector(call.Fun)
		if path != pkgObs {
			return true
		}
		switch name {
		case "AddGemm":
			ops["OpGemmCalls"] = true
			ops["OpGemmFlops"] = true
		case "Add":
			if len(call.Args) >= 1 {
				if opPath, opName := pass.pkgSelector(call.Args[0]); opPath == pkgObs {
					ops[opName] = true
				}
			}
		}
		return true
	})
	return ops
}

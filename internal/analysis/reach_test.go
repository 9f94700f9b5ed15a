package analysis

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// keptForTests is clause (2) of the rule internal/ is held to: a func no
// non-test file references stays when a surviving test needs it as the
// reference or helper for code a run can reach. The value names the test.
var keptForTests = map[string]string{
	"questgo/internal/analysis.MessageCoverage":                 "TestMessageCoverage: every declared diagnostic fires from a fixture",
	"questgo/internal/benchutil.ReadRecords":                    "TestCmdFigures reads back the records -fig=1 -json wrote, through DecodeRecord's schema check",
	"questgo/internal/check.Dims":                               "sanitizer stub: TestDims (-tags qmcdebug), TestDisabled",
	"questgo/internal/check.Assertf":                            "sanitizer stub: TestAssertf (-tags qmcdebug); the release twin keeps its signature",
	"(*questgo/internal/gpu/hw.Device).AllocBytes":              "TestSweeperSteadyDeviceMemory: sweeps leave device allocation flat",
	"(*questgo/internal/gpu/hw.Device).BusyCompute":             "TestEngineOccupancyBoundsClock, TestStreamsOverlapIndependentEngines",
	"(*questgo/internal/gpu/hw.Device).BusyTransfer":            "TestStreamsOverlapIndependentEngines",
	"(*questgo/internal/gpu/hw.Stream).Clock":                   "TestEventOrdersStreams: per-stream critical path",
	"questgo/internal/greens.GreenBigFloat":                     "256-bit reference of TestStratifiedMatchesBigFloatAndNaiveFails",
	"questgo/internal/greens.GreenNaive":                        "unstratified reference of TestGreenMatchesNaiveShortChain",
	"(*questgo/internal/greens.UDT).Matrix":                     "TestUDTReconstructsShortProduct, TestQuickFactoredSumConsistent",
	"(*questgo/internal/greens.Wrapper).WrapInverse":            "TestWrapInverseRoundTrip pins Wrap against its inverse",
	"(*questgo/internal/hubbard.Field).Clone":                   "twin fields of the stack-vs-rebuild and spin-parallel trajectory tests",
	"(*questgo/internal/lapack.QR).R":                           "TestQRReconstruct: Q*R == A",
	"(*questgo/internal/lapack.QR).MulQ":                        "the operator FormQ (DORGQR since PR 20, no longer MulQ on I) must equal: TestFormQAcrossPanelShapes, FuzzQRReconstruct; Q*R == A of TestQRReconstruct",
	"(*questgo/internal/lapack.LU).LogDet":                      "TestLUDeterminant and the update tests' exact-weight reference; a run tracks ratios only",
	"(*questgo/internal/lattice.Lattice).Neighbors":             "TestNeighborsCount: independent count of the bonds KMatrix builds",
	"(*questgo/internal/mat.Dense).MaxAbs":                      "tolerance scale of the lapack and greens property tests",
	"(*questgo/internal/mat.Dense).EqualApprox":                 "matrix comparison of the blas/lapack/gpu/greens tests",
	"questgo/internal/mat.Diag":                                 "input of TestSymEigDiagonal and TestSymExpZeroIsIdentity",
	"(*questgo/internal/measure.EqualTime).SpinStructureFactor": "TestAFStructureFactorMatchesGridPoint: the full S(q) grid",
	"questgo/internal/obs.DecodeMetrics":                        "TestMetricsDocumentShape: the schema-checked read path",
	"questgo/internal/obs.Total":                                "TestStackSweepUsesFewerUDTSteps: UDT step deltas",
	"(*questgo/internal/rng.Rand).Intn":                         "sizes and indices of the property tests",
	"(*questgo/internal/rng.Rand).NormFloat64":                  "TestNormFloat64Moments; Gaussian inputs of the stats tests",
	"questgo/internal/wiretest.Check":                           "TestWireLocked in each package that owns a wire document",
}

// TestInternalFuncsReferenced fails when a func or method under internal/ is
// referenced by no non-test file of the module, is not an exported method of
// a type the questgo facade aliases, and has no keptForTests row. A call
// through an interface counts for every method of that name.
func TestInternalFuncsReferenced(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	// usedMethod starts with what encoding/json, net/http and go/types call.
	used, usedMethod := map[string]bool{}, map[string]bool{"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true, "Import": true}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			if f, ok := obj.(*types.Func); ok {
				used[f.Origin().FullName()] = true
				if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					usedMethod[f.Name()] = true
				}
			}
		}
		for id, obj := range pkg.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || pkg.PkgPath != "questgo" || !tn.IsAlias() || !id.IsExported() {
				continue
			}
			named, _ := types.Unalias(tn.Type()).(*types.Named)
			for i := 0; named != nil && i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					used[m.FullName()] = true
				}
			}
		}
	}
	kept := map[string]bool{}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.PkgPath, "questgo/internal/") {
			continue
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" {
					continue
				}
				name := pkg.Info.Defs[fd.Name].(*types.Func).FullName()
				if _, listed := keptForTests[name]; listed {
					kept[name] = true
				} else if !used[name] && !(fd.Recv != nil && usedMethod[fd.Name.Name]) {
					t.Errorf("%s: %s is referenced by no non-test file and has no keptForTests row", pkg.Fset.Position(fd.Pos()), name)
				}
			}
		}
	}
	for name := range keptForTests {
		if !kept[name] || used[name] {
			t.Errorf("keptForTests lists %s, which is gone or referenced by a non-test file: drop the row", name)
		}
	}
}

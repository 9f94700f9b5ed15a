package analysis

import (
	"go/ast"
	"go/token"
)

// StreamOrder enforces the stream-execution discipline of internal/gpu:
// the Device's modeled-clock state (busyNS, xferBusyNS, launchNS, realNS
// and the per-stream clockNS) may be advanced only from *Stream or *Graph
// methods — the layer that knows the event ordering — or zeroed by
// (*Device).Reset. A kernel that bumps the clock fields directly bypasses
// the stream dependency model: its time is charged with no stream to order
// it against, so overlap accounting and the launch-overhead ledger silently
// drift from the executed schedule. Reads (the accessors' atomic.Load) are
// fine; only writes are ordered.
// streamorder diagnostic formats.
const (
	msgStreamWrite       = "write to device clock field %s outside a Stream/Graph method bypasses stream-ordered timing; charge through a Stream"
	msgStreamAtomicWrite = "atomic write to device clock field %s outside a Stream/Graph method bypasses stream-ordered timing; charge through a Stream"
)

var StreamOrder = &Analyzer{
	Name: "streamorder",
	Doc:  "Device clock state must be written through a Stream or Graph",
	Messages: []string{
		msgStreamWrite,
		msgStreamAtomicWrite,
	},
	Run: runStreamOrder,
}

// streamClockFields is the device/stream modeled-clock state guarded by the
// stream layer.
var streamClockFields = map[string]bool{
	"busyNS":     true,
	"xferBusyNS": true,
	"launchNS":   true,
	"realNS":     true,
	"clockNS":    true,
}

// atomicWriters are the sync/atomic entry points that mutate their operand.
var atomicWriters = map[string]bool{
	"AddInt64":             true,
	"StoreInt64":           true,
	"SwapInt64":            true,
	"CompareAndSwapInt64":  true,
	"AddInt32":             true,
	"StoreInt32":           true,
	"CompareAndSwapInt32":  true,
	"CompareAndSwapUint64": true,
}

func runStreamOrder(pass *Pass) error {
	if pass.PkgPath != pkgGPU {
		return nil
	}
	pass.Funcs(func(fd *ast.FuncDecl) {
		if streamOrderExempt(fd) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if name, ok := clockFieldSelector(lhs); ok {
						pass.Reportf(lhs.Pos(), msgStreamWrite, name)
					}
				}
			case *ast.IncDecStmt:
				if name, ok := clockFieldSelector(n.X); ok {
					pass.Reportf(n.Pos(), msgStreamWrite, name)
				}
			case *ast.CallExpr:
				if path, name := pass.pkgSelector(n.Fun); path != "sync/atomic" || !atomicWriters[name] || len(n.Args) == 0 {
					return true
				}
				if addr, ok := n.Args[0].(*ast.UnaryExpr); ok && addr.Op == token.AND {
					if name, ok := clockFieldSelector(addr.X); ok {
						pass.Reportf(n.Pos(), msgStreamAtomicWrite, name)
					}
				}
			}
			return true
		})
	})
	return nil
}

// streamOrderExempt reports whether fd is allowed to write clock state: a
// method on *Stream or *Graph, or the (*Device).Reset re-baseline.
func streamOrderExempt(fd *ast.FuncDecl) bool {
	switch recvTypeName(fd) {
	case "Stream", "Graph":
		return true
	case "Device":
		return fd.Name.Name == "Reset"
	}
	return false
}

// recvTypeName returns the name of fd's receiver type (pointer stripped), or
// "" for a plain function.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// clockFieldSelector reports whether e is a selector of a guarded clock
// field (x.busyNS, s.dev.clockNS, ...).
func clockFieldSelector(e ast.Expr) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || !streamClockFields[sel.Sel.Name] {
		return "", false
	}
	return sel.Sel.Name, true
}

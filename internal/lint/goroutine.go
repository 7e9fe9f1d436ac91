package lint

import "go/ast"

// runNakedGoroutine flags go statements. Simulation processes are
// iter.Pull coroutines created by internal/sim, so exactly one of them
// runs at a time and process interleaving is a pure function of the event
// queue; the kernel itself starts no goroutine. A goroutine spawned
// anywhere races the simulation and reintroduces host-timing
// nondeterminism unless it has been audited end to end.
func runNakedGoroutine(p *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			p.Report(g.Pos(),
				"naked goroutine",
				"model concurrency as sim processes (Sim.Spawn); host-parallel fan-out needs an audited //ddbmlint:allow no-naked-goroutine <why>")
		}
		return true
	})
}

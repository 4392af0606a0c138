package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"gpusched/internal/lint/analysis"
)

// Nogoroutine forbids concurrency constructs inside the cycle-loop
// packages. The simulator's central contract — equal Request keys produce
// byte-identical Results, on any GOMAXPROCS, on either cycle loop —
// holds because one goroutine advances the machine cycle by cycle. A `go`
// statement or channel operation inside gpu/sm/mem/core would let host
// scheduling order reach simulated state, which no test can reliably
// catch. Concurrency belongs one layer up, in internal/sim's worker pool,
// where whole deterministic simulations are the unit of parallelism.
var Nogoroutine = &analysis.Analyzer{
	Name: "nogoroutine",
	Doc: "forbids go statements, channel types, and channel operations in cycle-loop packages; " +
		"parallelism belongs in internal/sim, not inside the machine model",
	Run: runNogoroutine,
}

func runNogoroutine(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in a cycle-loop package: host goroutine scheduling must not reach simulated state")
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send in a cycle-loop package breaks single-threaded replay")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "channel receive in a cycle-loop package breaks single-threaded replay")
				}
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select in a cycle-loop package breaks single-threaded replay")
			case *ast.RangeStmt:
				if _, ok := pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Chan); ok {
					pass.Reportf(n.Pos(), "range over channel in a cycle-loop package breaks single-threaded replay")
				}
			case *ast.ChanType:
				pass.Reportf(n.Pos(), "channel type in a cycle-loop package: the machine model is single-threaded by contract")
			}
			return true
		})
	}
	return nil
}

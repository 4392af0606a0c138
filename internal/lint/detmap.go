package lint

import (
	"go/ast"
	"go/types"

	"gpusched/internal/lint/analysis"
)

// Detmap flags map iteration whose order can leak into results or
// user-visible output. Go randomizes map iteration order per run, so any
// `range m` over a map — and any maps.Keys/maps.Values sequence — is a
// nondeterminism hazard unless the iteration's effect is provably
// order-free. The analyzer accepts two escape hatches: a sort call later
// in the same block (the collect-then-sort idiom), or wrapping maps.Keys
// directly in slices.Sorted; anything else needs a
// //gpulint:allow detmap justification comment.
var Detmap = &analysis.Analyzer{
	Name: "detmap",
	Doc: "flags range-over-map and unsorted maps.Keys/Values in deterministic packages; " +
		"suppress with //gpulint:allow detmap <reason> after proving order cannot matter",
	Run: runDetmap,
}

func runDetmap(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		analysis.WalkStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if _, ok := pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Map); !ok {
					return true
				}
				if sortFollows(pass, n, stack) {
					return true
				}
				pass.Reportf(n.Pos(), "range over map %s has nondeterministic order; iterate sorted keys, sort afterwards in this block, or justify with //gpulint:allow detmap", types.ExprString(n.X))
			case *ast.CallExpr:
				name, ok := calleeOf(pass, n, "maps", "Keys", "Values")
				if !ok {
					return true
				}
				if parent, ok := parentCall(stack); ok {
					if _, sorted := calleeOf(pass, parent, "slices", "Sorted", "SortedFunc", "SortedStableFunc"); sorted {
						return true
					}
				}
				pass.Reportf(n.Pos(), "maps.%s yields keys in nondeterministic order; wrap in slices.Sorted (or a SortedFunc variant) or justify with //gpulint:allow detmap", name)
			}
			return true
		})
	}
	return nil
}

// calleeOf reports whether call invokes pkg.<one of names>, returning the
// matched name. pkg is matched by import path suffix so it covers both
// "sort"/"slices"/"maps" and hypothetical vendored paths.
func calleeOf(pass *analysis.Pass, call *ast.CallExpr, pkg string, names ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkg {
		return "", false
	}
	for _, n := range names {
		if fn.Name() == n {
			return n, true
		}
	}
	return "", false
}

// sortFollows reports whether a sort.* or slices.Sort* call appears after
// the range statement in its enclosing block — the collect-then-sort idiom
// (append map elements to a slice, then order it before anything observes
// the sequence).
func sortFollows(pass *analysis.Pass, rng *ast.RangeStmt, stack []ast.Node) bool {
	var block *ast.BlockStmt
	var inner ast.Node = rng
	for i := len(stack) - 1; i >= 0; i-- {
		if b, ok := stack[i].(*ast.BlockStmt); ok {
			block = b
			break
		}
		inner = stack[i]
	}
	if block == nil {
		return false
	}
	after := false
	for _, stmt := range block.List {
		if stmt == inner {
			after = true
			continue
		}
		if !after {
			continue
		}
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isSortCall(pass, call) {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// isSortCall matches sort.* and slices.Sort* calls (including method
// values like sort.Slice and slices.SortStableFunc).
func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		return len(fn.Name()) >= 4 && fn.Name()[:4] == "Sort"
	}
	return false
}

// parentCall returns the nearest enclosing call expression when the stack
// top is its argument list (i.e. the current node is a direct argument).
func parentCall(stack []ast.Node) (*ast.CallExpr, bool) {
	if len(stack) == 0 {
		return nil, false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	return call, ok
}

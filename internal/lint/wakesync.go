package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"gpusched/internal/lint/analysis"
)

// Wakesync enforces the lazy stall-counter watermark contract (DESIGN.md
// "Concurrency contracts"): a struct field annotated
//
//	//gpulint:lazy Field[,Field...] <what syncs them>
//
// is a lazily-accrued container — the named sub-fields only hold their
// true value after the owner has been fast-forwarded to the reader's
// cycle. sm.SM annotates its Stats field this way: ActiveCycles and the
// stall counters accrue in SM.FastForward, so a read from outside the
// core's own tick that skips the wake/sync funnel sees a stale watermark.
// Reads of the listed sub-fields (or copies of the whole container) are
// only legal in code reachable from a //gpulint:phasea root — SM.Tick: a
// core replaying itself is, by construction, at its own watermark — or in
// functions annotated //gpulint:synced: the funnels, and readers that
// provably run after one.
var Wakesync = &analysis.Analyzer{
	Name: "wakesync",
	Doc: "reads of //gpulint:lazy counters outside the //gpulint:phasea tick path must happen in //gpulint:synced " +
		"functions; keeps the PR 8 watermark contract (sync before you read) mechanical",
	Run: runWakesync,
}

func runWakesync(pass *analysis.Pass) error {
	prog := analysis.ProgramFromPass(pass)
	reportMisattached(pass, prog, map[string]string{
		analysis.KindPhaseA: "a function declaration or literal",
		analysis.KindSynced: "a function declaration or literal",
		analysis.KindLazy:   "a struct field",
	})

	// lazy containers: canonical field key (Program.VarKey) -> set of
	// lazily-accrued sub-fields. Keys, not *types.Var pointers: a reader in
	// another package sees the field through export data as a distinct
	// object, and the contract must hold at exactly those readers.
	lazies := make(map[string]map[string]bool)
	for _, fa := range prog.AnnotatedFields(analysis.KindLazy) {
		inPkg := fa.Field.Pkg() == pass.Pkg
		st, ok := fa.Field.Type().Underlying().(*types.Struct)
		if !ok {
			if inPkg {
				pass.Reportf(fa.D.Pos, "//gpulint:lazy: field %s is not of struct type", fa.Field.Name())
			}
			continue
		}
		if len(fa.D.Args) == 0 {
			if inPkg {
				pass.Reportf(fa.D.Pos, "//gpulint:lazy needs the lazily-accrued sub-field names, e.g. //gpulint:lazy ActiveCycles,StallDrain")
			}
			continue
		}
		sub := make(map[string]bool, len(fa.D.Args))
		for _, name := range fa.D.Args {
			found := false
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Name() == name {
					found = true
					break
				}
			}
			if !found {
				if inPkg {
					pass.Reportf(fa.D.Pos, "//gpulint:lazy: %s has no field %s",
						types.TypeString(fa.Field.Type(), types.RelativeTo(fa.Field.Pkg())), name)
				}
				continue
			}
			sub[name] = true
		}
		lazies[prog.VarKey(fa.Field)] = sub
	}
	if len(lazies) == 0 {
		return nil
	}

	phaseA := prog.Reachable(prog.AnnotatedFuncs(analysis.KindPhaseA))
	for _, n := range prog.Nodes() {
		if n.Pkg.Pkg != pass.Pkg || n.HasDirective(analysis.KindSynced) {
			continue
		}
		if _, ok := phaseA[n]; ok {
			continue
		}
		scanLazyReads(pass, prog, lazies, n)
	}
	return nil
}

// scanLazyReads walks one function body (nested literals are their own
// nodes) and reports reads through a lazy container. Writes — the accrual
// sites themselves — are exempt: storing into a lazy counter is the
// watermark mechanism, reading one stale is the bug.
func scanLazyReads(pass *analysis.Pass, prog *analysis.Program, lazies map[string]map[string]bool, n *analysis.FuncNode) {
	body := n.Body()
	if body == nil {
		return
	}
	analysis.WalkStack(body, func(x ast.Node, stack []ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if !outermostSelector(sel, stack) || isWriteTarget(sel, stack) {
			return true
		}
		container, terminal := lazyChain(pass, prog, lazies, sel)
		if container == nil {
			return true
		}
		sub := lazies[prog.VarKey(container)]
		switch {
		case terminal == container.Name():
			pass.Reportf(sel.Pos(), "wakesync: %s copies %s, whose %s are lazily accrued; sync the owner to the current cycle first (//gpulint:synced funnel)",
				n.Name(), types.ExprString(sel), strings.Join(sortedNames(sub), "/"))
		case sub[terminal]:
			pass.Reportf(sel.Pos(), "wakesync: %s reads lazily-accrued %s outside the sync funnel; read it after a sync, or annotate the reader //gpulint:synced with why it is safe",
				n.Name(), types.ExprString(sel))
		}
		return true
	})
}

// outermostSelector reports whether sel is not itself the base of an
// enclosing selector chain (possibly through index/paren links) — chain
// analysis runs once, at the outermost link.
func outermostSelector(sel *ast.SelectorExpr, stack []ast.Node) bool {
	var cur ast.Expr = sel
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.SelectorExpr:
			return p.X != cur
		case *ast.IndexExpr:
			if p.X != cur {
				return true
			}
			cur = p
		case *ast.ParenExpr:
			cur = p
		default:
			return true
		}
	}
	return true
}

// isWriteTarget reports whether the selector is the target of an
// assignment or ++/-- (directly or through index links).
func isWriteTarget(sel *ast.SelectorExpr, stack []ast.Node) bool {
	var cur ast.Expr = sel
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.IndexExpr:
			if p.X != cur {
				return false
			}
			cur = p
		case *ast.ParenExpr:
			cur = p
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == cur {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return p.X == cur
		case *ast.UnaryExpr:
			// &x.f hands out a mutable reference; treat as a write site.
			return p.Op.String() == "&"
		default:
			return false
		}
	}
	return false
}

// lazyChain walks the selector chain outermost-in, returning the lazy
// container field it passes through (nil if none) and the terminal field
// name ("" when the terminal selection is not a plain field, e.g. a
// method value — which copies the receiver, so the container name is
// returned as terminal).
func lazyChain(pass *analysis.Pass, prog *analysis.Program, lazies map[string]map[string]bool, outer *ast.SelectorExpr) (*types.Var, string) {
	var fields []*types.Var
	e := ast.Expr(outer)
	terminal := ""
	first := true
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			selection, ok := pass.TypesInfo.Selections[x]
			if ok && selection.Kind() == types.FieldVal {
				if f, ok := selection.Obj().(*types.Var); ok {
					fields = append(fields, f)
					if first {
						terminal = f.Name()
					}
				}
			}
			first = false
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			for _, f := range fields {
				if _, ok := lazies[prog.VarKey(f)]; ok {
					if terminal == "" || f.Name() == terminal {
						return f, f.Name()
					}
					return f, terminal
				}
			}
			return nil, ""
		}
	}
}

func sortedNames(set map[string]bool) []string {
	var out []string
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

package lint

import (
	"go/ast"
	"go/types"

	"gpusched/internal/lint/analysis"
)

// Ctxflow enforces context discipline in the serving tier (DESIGN.md
// "Concurrency contracts"). Three flat bans, anywhere in a scoped package:
//
//   - bare time.Sleep: it blocks with no cancellation, so a drain or shutdown
//     waits out the full sleep; select on a timer and a context instead;
//   - context-free HTTP (http.Get/Post/Head/PostForm, http.NewRequest, and
//     the same methods on *http.Client): a black-holed peer then pins the
//     goroutine until the client timeout, invisible to cancellation;
//   - context.Background() and context.TODO(): serving code runs on behalf
//     of a request or a server lifetime, whose context the work should
//     inherit. A place that deliberately detaches — the prober, living as
//     long as its router — says so with a reasoned //gpulint:allow ctxflow.
var Ctxflow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "bans bare time.Sleep, context-free HTTP and fresh context.Background/TODO roots in the serving tier " +
		"(thread the caller's context; a deliberate detach carries a reasoned //gpulint:allow ctxflow)",
	Run: runCtxflow,
}

func runCtxflow(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				checkCtxCall(pass, call)
			}
			return true
		})
	}
	return nil
}

func checkCtxCall(pass *analysis.Pass, call *ast.CallExpr) {
	callee := typeutilCallee(pass, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	name := callee.Name()
	switch callee.Pkg().Path() {
	case "time":
		if name == "Sleep" {
			pass.Reportf(call.Pos(), "ctxflow: bare time.Sleep blocks with no cancellation; select on a timer and a context (or the stop channel) instead")
		}
	case "net/http":
		sig, _ := callee.Type().(*types.Signature)
		onClient := sig != nil && sig.Recv() != nil && isClientRecv(sig.Recv().Type())
		switch {
		case name == "NewRequest":
			pass.Reportf(call.Pos(), "ctxflow: http.NewRequest builds a context-free request; use http.NewRequestWithContext")
		case (name == "Get" || name == "Post" || name == "Head" || name == "PostForm") && (sig == nil || sig.Recv() == nil):
			pass.Reportf(call.Pos(), "ctxflow: http.%s sends a request with no context; build one with http.NewRequestWithContext and Do it", name)
		case (name == "Get" || name == "Post" || name == "Head" || name == "PostForm") && onClient:
			pass.Reportf(call.Pos(), "ctxflow: (*http.Client).%s sends a request with no context; build one with http.NewRequestWithContext and Do it", name)
		}
	case "context":
		if name == "Background" || name == "TODO" {
			pass.Reportf(call.Pos(), "ctxflow: context.%s mints a fresh root context in the serving tier; thread the caller's context, or mark a deliberate detach with a reasoned //gpulint:allow ctxflow", name)
		}
	}
}

// typeutilCallee resolves the static callee of a call, or nil.
func typeutilCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func isClientRecv(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Client"
}

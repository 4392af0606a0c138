package lint

import (
	"go/ast"
	"go/types"

	"gpusched/internal/lint/analysis"
)

// Ctxflow enforces context discipline in the serving tier (DESIGN.md
// "Concurrency contracts"). Two rule classes:
//
// Flat bans, anywhere in a scoped package: bare time.Sleep (blocks with
// no cancellation — a drain or shutdown then waits out the full sleep;
// select on a timer and a context instead), and context-free HTTP
// (http.Get/Post/Head/PostForm, http.NewRequest, and the same methods on
// *http.Client — a black-holed peer then pins the goroutine until the
// client timeout, invisible to cancellation).
//
// Handler-path rule, via the whole-program call graph: any function
// reachable from an HTTP handler (signature func(http.ResponseWriter,
// *http.Request)) must not mint fresh roots with context.Background() or
// context.TODO() — the request already carries the context the work
// should inherit. Code that deliberately detaches (a job runner outliving
// its submission request) is fine exactly because it is not on a handler
// path.
var Ctxflow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "bans bare time.Sleep and context-free HTTP in the serving tier, and bans " +
		"context.Background/TODO in handler-reachable code (thread the request context)",
	Run: runCtxflow,
}

func runCtxflow(pass *analysis.Pass) error {
	prog := analysis.ProgramFromPass(pass)
	handlerReach := prog.Reachable(httpHandlers(prog))

	for _, n := range prog.Nodes() {
		if n.Pkg.Pkg != pass.Pkg {
			continue
		}
		body := n.Body()
		if body == nil {
			continue
		}
		_, reached := handlerReach[n]
		ast.Inspect(body, func(x ast.Node) bool {
			if lit, ok := x.(*ast.FuncLit); ok && lit != n.Lit {
				return false
			}
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkCtxCall(pass, prog, handlerReach, n, call, reached)
			return true
		})
	}
	return nil
}

// httpHandlers returns every function whose signature is the
// net/http.HandlerFunc shape — the roots of the request-context flow.
func httpHandlers(prog *analysis.Program) []*analysis.FuncNode {
	var out []*analysis.FuncNode
	for _, n := range prog.Nodes() {
		var sig *types.Signature
		switch {
		case n.Obj != nil:
			sig, _ = n.Obj.Type().(*types.Signature)
		case n.Lit != nil:
			sig, _ = n.Pkg.Info.TypeOf(n.Lit).(*types.Signature)
		}
		if sig != nil && isHandlerSig(sig) {
			out = append(out, n)
		}
	}
	return out
}

func isHandlerSig(sig *types.Signature) bool {
	if sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	return isNetHTTP(sig.Params().At(0).Type(), "ResponseWriter", false) &&
		isNetHTTP(sig.Params().At(1).Type(), "Request", true)
}

func isNetHTTP(t types.Type, name string, wantPtr bool) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		if !wantPtr {
			return false
		}
		t = ptr.Elem()
	} else if wantPtr {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == name
}

func checkCtxCall(pass *analysis.Pass, prog *analysis.Program, reach map[*analysis.FuncNode]*analysis.FuncNode, n *analysis.FuncNode, call *ast.CallExpr, handlerReachable bool) {
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
		if (name == "Background" || name == "TODO") && handlerReachable {
			pass.Reportf(call.Pos(), "ctxflow: %s is reachable from an HTTP handler (%s) but mints a fresh context.%s; thread the request context instead",
				n.Name(), prog.Path(reach, n), name)
		}
	}
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

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gpusched/internal/lint/analysis"
)

// Cachekey enforces field-coverage contracts declared by
// //gpulint:cachekey annotations. A function annotated
//
//	//gpulint:cachekey T
//
// must reference every exported field of the package-local struct type T,
// directly or through same-package functions it calls. internal/sim
// annotates Request.Key, SchedSpec.String and the cache-entry codec
// (EncodeCacheEntry, DecodeCacheEntry) with it: adding a knob to Request or
// SchedSpec without folding it into the canonical cache key then fails the
// build instead of silently serving stale cached results, which the memo
// and disk caches rely on never happening.
var Cachekey = &analysis.Analyzer{
	Name: "cachekey",
	Doc: "functions annotated //gpulint:cachekey T must reference every exported field of struct T " +
		"(transitively through same-package calls); keeps cache keys and wire forms exhaustive",
	Run: runCachekey,
}

func runCachekey(pass *analysis.Pass) error {
	decls := funcDecls(pass)
	for _, d := range pass.Directives {
		if d.Kind != analysis.KindCachekey {
			continue
		}
		if len(d.Args) != 1 {
			pass.Reportf(d.Pos, "//gpulint:cachekey needs exactly one type name, e.g. //gpulint:cachekey Request")
			continue
		}
		typeName := d.Args[0]
		fn := annotatedFunc(pass, d.Pos)
		if fn == nil {
			pass.Reportf(d.Pos, "//gpulint:cachekey %s is not attached to a function declaration", typeName)
			continue
		}
		obj, ok := pass.Pkg.Scope().Lookup(typeName).(*types.TypeName)
		if !ok {
			pass.Reportf(d.Pos, "//gpulint:cachekey: no type %s in package %s", typeName, pass.Pkg.Name())
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			pass.Reportf(d.Pos, "//gpulint:cachekey: %s is not a struct type", typeName)
			continue
		}

		want := make(map[*types.Var]bool) // exported field -> referenced
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				want[f] = false
			}
		}
		markFieldRefs(pass, fn, decls, want, make(map[*ast.FuncDecl]bool))

		var missing []string
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && !want[f] {
				missing = append(missing, f.Name())
			}
		}
		if len(missing) > 0 {
			pass.Reportf(d.Pos, "cachekey: %s does not reference exported field(s) %s of %s; fold them into the serialization or unexport them",
				fn.Name.Name, strings.Join(missing, ", "), typeName)
		}
	}
	return nil
}

// funcDecls maps each package-level function object to its declaration so
// the field-reference walk can follow same-package calls.
func funcDecls(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					out[obj] = fd
				}
			}
		}
	}
	return out
}

// annotatedFunc finds the function declaration whose doc comment contains
// the directive position.
func annotatedFunc(pass *analysis.Pass, pos token.Pos) *ast.FuncDecl {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			if fd.Doc.Pos() <= pos && pos <= fd.Doc.End() {
				return fd
			}
		}
	}
	return nil
}

// markFieldRefs walks fn's body marking every selection of a tracked field
// of the contract type, recursing into same-package callees (the
// serialization helpers String/entry/arg style indirection must count).
func markFieldRefs(pass *analysis.Pass, fn *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl, want map[*types.Var]bool, seen map[*ast.FuncDecl]bool) {
	if fn == nil || fn.Body == nil || seen[fn] {
		return
	}
	seen[fn] = true
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			// A keyed composite literal writes the field: CacheEntry{Key: k}
			// references Key just as e.Key does — the encode side of a wire
			// form builds the struct instead of reading it.
			if key, ok := n.Key.(*ast.Ident); ok {
				if f, ok := pass.TypesInfo.Uses[key].(*types.Var); ok {
					if _, tracked := want[f]; tracked {
						want[f] = true
					}
				}
			}
		case *ast.SelectorExpr:
			if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.FieldVal {
				if f, ok := sel.Obj().(*types.Var); ok {
					if _, tracked := want[f]; tracked {
						want[f] = true
					}
				}
			}
			// A method call through a selector also recurses below via Uses.
			if callee, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func); ok {
				markFieldRefs(pass, decls[callee], decls, want, seen)
			}
		case *ast.Ident:
			if callee, ok := pass.TypesInfo.Uses[n].(*types.Func); ok {
				markFieldRefs(pass, decls[callee], decls, want, seen)
			}
		}
		return true
	})
}

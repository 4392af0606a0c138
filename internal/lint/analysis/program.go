package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is the whole-program view guardedby runs on: every function of
// every loaded package, and the //gpulint: directives that annotate struct
// fields, resolved across packages — a field annotated in one package is
// accessed in others, which see it through export data (see VarKey). One
// Program is built per gpulint run and shared by every pass through
// Pass.Prog.
//
// Function literals are their own nodes, not folded into their enclosing
// declaration: a closure escaping a locked region runs without the lock its
// encloser held.
type Program struct {
	Fset *token.FileSet
	Pkgs []*ProgPkg

	nodes     []*FuncNode // position order: deterministic iteration
	fieldAnns []FieldAnnotation
}

// FieldAnnotation is one directive attached to a struct field, with the
// named type declaring the struct.
type FieldAnnotation struct {
	Field *types.Var
	Owner *types.TypeName
	D     Directive
}

// ProgPkg is one loaded package as the whole-program layer sees it.
type ProgPkg struct {
	Pkg        *types.Package
	Info       *types.Info
	Files      []*ast.File
	Directives []Directive
}

// FuncNode is one function: either a declaration (Decl set) or a function
// literal (Lit set).
type FuncNode struct {
	Pkg  *ProgPkg
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit

	name string
}

// Name returns a stable human-readable name: "pkg.Func",
// "pkg.Recv.Method", or "enclosing.func@file:line" for literals.
func (n *FuncNode) Name() string { return n.name }

// Pos returns the function's source position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Body returns the function body (nil for bodyless declarations).
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// ProgramFromPass returns the pass's shared Program, or builds a
// one-package Program for a single-package run (fixtures, unit
// tests) — the analyzers are agnostic to which they got.
func ProgramFromPass(pass *Pass) *Program {
	if pass.Prog != nil {
		return pass.Prog
	}
	return NewProgram(pass.Fset, []*ProgPkg{{
		Pkg: pass.Pkg, Info: pass.TypesInfo, Files: pass.Files, Directives: pass.Directives,
	}})
}

// NewProgram collects the function nodes and field annotations of pkgs.
func NewProgram(fset *token.FileSet, pkgs []*ProgPkg) *Program {
	p := &Program{Fset: fset, Pkgs: pkgs}
	p.collectNodes()
	for _, pkg := range p.Pkgs {
		for _, d := range pkg.Directives {
			p.attachOne(pkg, d)
		}
	}
	return p
}

// Nodes returns every function node in position order.
func (p *Program) Nodes() []*FuncNode { return p.nodes }

// VarKey is the canonical identity of a struct field across type-checking
// universes: declaration file, line, and name. The loader type-checks each
// module package from source but resolves its imports through export data,
// so one declared field exists as several distinct *types.Var objects and
// pointer-keyed maps silently miss every cross-package lookup. The column is
// excluded — export data keeps the file and line of a field's position but
// rounds the column to 1, so including it would split the universes again.
func (p *Program) VarKey(v *types.Var) string {
	if v == nil {
		return ""
	}
	if pos := p.Fset.Position(v.Pos()); pos.IsValid() {
		return fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, v.Name())
	}
	if v.Pkg() != nil {
		return v.Pkg().Path() + "." + v.Name()
	}
	return v.Name()
}

// AnnotatedFields returns every struct-field annotation of the kind, in
// package/position order.
func (p *Program) AnnotatedFields(kind string) []FieldAnnotation {
	var out []FieldAnnotation
	for _, fa := range p.fieldAnns {
		if fa.D.Kind == kind {
			out = append(out, fa)
		}
	}
	return out
}

// AttachedPositions returns the source positions of every directive that
// resolved to a struct field — the complement is the set of structural
// directives that annotate nothing, which the analyzers report as
// misattached.
func (p *Program) AttachedPositions() map[token.Pos]bool {
	out := make(map[token.Pos]bool)
	for _, fa := range p.fieldAnns {
		out[fa.D.Pos] = true
	}
	return out
}

// ---- construction ----

func (p *Program) collectNodes() {
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				n := &FuncNode{Pkg: pkg, Decl: fd, name: declName(pkg, fd)}
				p.nodes = append(p.nodes, n)
				// Literal nodes, named after their innermost encloser.
				p.collectLits(pkg, n, fd.Body)
			}
		}
	}
	sort.Slice(p.nodes, func(i, j int) bool {
		pi, pj := p.Fset.Position(p.nodes[i].Pos()), p.Fset.Position(p.nodes[j].Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
}

// collectLits registers every function literal under root as a node of
// its own, nesting included.
func (p *Program) collectLits(pkg *ProgPkg, encloser *FuncNode, root ast.Node) {
	if root == nil {
		return
	}
	ast.Inspect(root, func(x ast.Node) bool {
		lit, ok := x.(*ast.FuncLit)
		if !ok {
			return true
		}
		pos := p.Fset.Position(lit.Pos())
		n := &FuncNode{
			Pkg: pkg, Lit: lit,
			name: fmt.Sprintf("%s.func@%s:%d", encloser.name, shortFile(pos.Filename), pos.Line),
		}
		p.nodes = append(p.nodes, n)
		p.collectLits(pkg, n, lit.Body)
		return false // the recursion above owns the subtree
	})
}

func declName(pkg *ProgPkg, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg.Pkg.Name() + "." + fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	for {
		switch t := recv.(type) {
		case *ast.StarExpr:
			recv = t.X
			continue
		case *ast.IndexExpr:
			recv = t.X
			continue
		case *ast.ParenExpr:
			recv = t.X
			continue
		}
		break
	}
	if id, ok := recv.(*ast.Ident); ok {
		return pkg.Pkg.Name() + "." + id.Name + "." + fd.Name.Name
	}
	return pkg.Pkg.Name() + "." + fd.Name.Name
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// attachOne resolves directive d to the struct field it annotates (the
// field's doc or trailing comment), if any. Attachment is positional.
func (p *Program) attachOne(pkg *ProgPkg, d Directive) {
	dp := p.Fset.Position(d.Pos)
	for _, file := range pkg.Files {
		if p.Fset.Position(file.Pos()).Filename != dp.Filename {
			continue
		}
		for _, decl := range file.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && p.attachGen(pkg, gd, d) {
				return
			}
		}
		return
	}
}

// attachGen attaches a directive inside a type declaration to one of its
// struct fields (field doc or trailing comment).
func (p *Program) attachGen(pkg *ProgPkg, gd *ast.GenDecl, d Directive) bool {
	if gd.Tok != token.TYPE {
		return false
	}
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
		st, ok := ts.Type.(*ast.StructType)
		if !ok || st.Fields == nil {
			continue
		}
		for _, field := range st.Fields.List {
			inField := (field.Doc != nil && field.Doc.Pos() <= d.Pos && d.Pos <= field.Doc.End()) ||
				(field.Comment != nil && field.Comment.Pos() <= d.Pos && d.Pos <= field.Comment.End())
			if !inField {
				continue
			}
			for _, name := range field.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					p.fieldAnns = append(p.fieldAnns, FieldAnnotation{Field: v, Owner: tn, D: d})
				}
			}
			return true
		}
	}
	return false
}

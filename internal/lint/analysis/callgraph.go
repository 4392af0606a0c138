package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Program is the whole-program view the cross-package analyzers
// (wakesync, ctxflow, guardedby) run on: every loaded package, a
// type-based call graph over their functions, and directive attachment
// resolved down to functions and struct fields. One Program is
// built per driver invocation and shared by every pass through Pass.Prog.
//
// The call graph is deliberately conservative, in the classic
// may-call sense:
//
//   - a static call (identifier or concrete method selector) gets one edge
//     to its callee when the callee's body is in the program;
//   - a call through an interface method gets an edge to that method on
//     every in-program named type implementing the interface (class
//     hierarchy analysis);
//   - a call through a function value — a field, variable, or parameter of
//     function type — gets an edge to every function literal and every
//     address-taken declared function whose (receiver-stripped) signature
//     is identical to the call's.
//
// Function literals are their own nodes, not folded into their enclosing
// declaration: a closure handed to a visitor runs on the visitor's call
// path even though the function that built it never does, and vice versa.
type Program struct {
	Fset *token.FileSet
	Pkgs []*ProgPkg

	// The maps below are keyed by canonical strings, not object pointers.
	// The loader type-checks each module package from source but resolves
	// its imports through export data, so one declared function or field
	// exists as several distinct *types.Func/*types.Var objects — one per
	// type-checking universe. Pointer-keyed maps silently miss every
	// cross-package lookup; FullName/position keys are universe-independent.
	nodes     []*FuncNode            // position order: deterministic iteration
	byAST     map[ast.Node]*FuncNode // *ast.FuncDecl / *ast.FuncLit -> node
	byFn      map[string]*FuncNode   // funcKey (FullName) -> declared function node
	fields    map[string][]Directive // VarKey -> struct-field directives
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

// FuncNode is one function in the call graph: either a declaration
// (Decl/Obj set) or a function literal (Lit set).
type FuncNode struct {
	Pkg  *ProgPkg
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Obj  *types.Func // nil for literals

	name       string
	callees    []*FuncNode
	calleeSet  map[*FuncNode]bool
	directives []Directive
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

// Callees returns the outgoing call edges in deterministic order.
func (n *FuncNode) Callees() []*FuncNode { return n.callees }

// Directives returns the //gpulint: directives attached to the function:
// its doc comment for declarations, the same or previous line for
// literals.
func (n *FuncNode) Directives() []Directive { return n.directives }

// Directive returns the first attached directive of the given kind.
func (n *FuncNode) Directive(kind string) (Directive, bool) {
	for _, d := range n.directives {
		if d.Kind == kind {
			return d, true
		}
	}
	return Directive{}, false
}

// HasDirective reports whether a directive of the kind is attached.
func (n *FuncNode) HasDirective(kind string) bool {
	_, ok := n.Directive(kind)
	return ok
}

// ProgramFromPass returns the pass's shared Program, or builds a
// one-package Program when the driver ran single-package (fixtures, unit
// tests) — the analyzers are agnostic to which they got.
func ProgramFromPass(pass *Pass) *Program {
	if pass.Prog != nil {
		return pass.Prog
	}
	return NewProgram(pass.Fset, []*ProgPkg{{
		Pkg: pass.Pkg, Info: pass.TypesInfo, Files: pass.Files, Directives: pass.Directives,
	}})
}

// NewProgram builds the call graph and directive attachment over pkgs.
func NewProgram(fset *token.FileSet, pkgs []*ProgPkg) *Program {
	p := &Program{
		Fset:   fset,
		Pkgs:   pkgs,
		byAST:  make(map[ast.Node]*FuncNode),
		byFn:   make(map[string]*FuncNode),
		fields: make(map[string][]Directive),
	}
	p.collectNodes()
	p.attachDirectives()
	addrTaken := p.collectAddrTaken()
	named := p.collectNamedTypes()
	for _, n := range p.nodes {
		p.buildEdges(n, addrTaken, named)
	}
	for _, n := range p.nodes {
		sort.Slice(n.callees, func(i, j int) bool { return n.callees[i].Pos() < n.callees[j].Pos() })
	}
	return p
}

// Nodes returns every function node in position order.
func (p *Program) Nodes() []*FuncNode { return p.nodes }

// NodeOf resolves an *ast.FuncDecl or *ast.FuncLit to its node.
func (p *Program) NodeOf(n ast.Node) *FuncNode { return p.byAST[n] }

// NodeFor resolves a declared function object to its node (nil when the
// body is outside the program, e.g. stdlib). The object may come from any
// type-checking universe — source-checked or export data.
func (p *Program) NodeFor(fn *types.Func) *FuncNode { return p.byFn[funcKey(fn)] }

// funcKey is the canonical identity of a declared function across
// type-checking universes: FullName package-qualifies both the receiver
// and the function, and is identical whether the object was checked from
// source or decoded from export data.
func funcKey(fn *types.Func) string {
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return fn.FullName()
}

// VarKey is the canonical identity of a struct field across type-checking
// universes: declaration file, line, and name. The column is excluded —
// export data keeps the file and line of a field's position but rounds
// the column to 1, so including it would split the universes again.
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

// AnnotatedFuncs returns every node carrying a directive of the kind, in
// position order.
func (p *Program) AnnotatedFuncs(kind string) []*FuncNode {
	var out []*FuncNode
	for _, n := range p.nodes {
		if n.HasDirective(kind) {
			out = append(out, n)
		}
	}
	return out
}

// FieldDirectives returns the directives attached to a struct field
// declaration (its doc comment, trailing comment, or the previous line).
// The field object may come from any type-checking universe.
func (p *Program) FieldDirectives(f *types.Var) []Directive { return p.fields[p.VarKey(f)] }

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
// resolved to a function or struct field — the complement is the
// set of structural directives that annotate nothing, which the analyzers
// report as misattached.
func (p *Program) AttachedPositions() map[token.Pos]bool {
	out := make(map[token.Pos]bool)
	for _, n := range p.nodes {
		for _, d := range n.directives {
			out[d.Pos] = true
		}
	}
	for _, fa := range p.fieldAnns {
		out[fa.D.Pos] = true
	}
	return out
}

// Reachable walks call edges breadth-first from roots and returns the BFS
// tree as a child->parent map (roots map to nil).
func (p *Program) Reachable(roots []*FuncNode) map[*FuncNode]*FuncNode {
	parents := make(map[*FuncNode]*FuncNode)
	queue := make([]*FuncNode, 0, len(roots))
	for _, r := range roots {
		if _, ok := parents[r]; !ok {
			parents[r] = nil
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.callees {
			if _, ok := parents[c]; !ok {
				parents[c] = n
				queue = append(queue, c)
			}
		}
	}
	return parents
}

// Path renders the call chain from a root to n through a Reachable tree:
// "root → ... → n". Diagnostics carry it so a cross-package finding names
// the edge that created the obligation, not just the line that broke it.
func (p *Program) Path(parents map[*FuncNode]*FuncNode, n *FuncNode) string {
	var chain []string
	for at := n; at != nil; at = parents[at] {
		chain = append(chain, at.Name())
		if parents[at] == nil {
			break
		}
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return strings.Join(chain, " -> ")
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
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				n := &FuncNode{
					Pkg: pkg, Decl: fd, Obj: obj,
					name:      declName(pkg, fd),
					calleeSet: make(map[*FuncNode]bool),
				}
				p.nodes = append(p.nodes, n)
				p.byAST[fd] = n
				if obj != nil {
					p.byFn[funcKey(obj)] = n
				}
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
			name:      fmt.Sprintf("%s.func@%s:%d", encloser.name, shortFile(pos.Filename), pos.Line),
			calleeSet: make(map[*FuncNode]bool),
		}
		p.nodes = append(p.nodes, n)
		p.byAST[lit] = n
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

// attachDirectives resolves each package's directives to the functions,
// types, and struct fields they annotate. Attachment is positional: a
// declaration's doc-comment range, a struct field's doc or trailing
// comment, or — for function literals, which cannot carry doc comments —
// the literal's own line or the line above it.
func (p *Program) attachDirectives() {
	for _, pkg := range p.Pkgs {
		for _, d := range pkg.Directives {
			p.attachOne(pkg, d)
		}
	}
}

func (p *Program) attachOne(pkg *ProgPkg, d Directive) {
	dp := p.Fset.Position(d.Pos)
	for _, file := range pkg.Files {
		if p.Fset.Position(file.Pos()).Filename != dp.Filename {
			continue
		}
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Doc != nil && decl.Doc.Pos() <= d.Pos && d.Pos <= decl.Doc.End() {
					n := p.byAST[decl]
					n.directives = append(n.directives, d)
					return
				}
			case *ast.GenDecl:
				if p.attachGen(pkg, decl, d, dp) {
					return
				}
			}
		}
		// Function literals: same line as the literal or the line above.
		attached := false
		ast.Inspect(file, func(x ast.Node) bool {
			if attached {
				return false
			}
			lit, ok := x.(*ast.FuncLit)
			if !ok {
				return true
			}
			line := p.Fset.Position(lit.Pos()).Line
			if dp.Line == line || dp.Line == line-1 {
				n := p.byAST[lit]
				n.directives = append(n.directives, d)
				attached = true
				return false
			}
			return true
		})
		return
	}
}

// attachGen attaches a directive inside a type declaration to one of its
// struct fields (field doc or trailing comment).
func (p *Program) attachGen(pkg *ProgPkg, gd *ast.GenDecl, d Directive, dp token.Position) bool {
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
					p.fields[p.VarKey(v)] = append(p.fields[p.VarKey(v)], d)
					p.fieldAnns = append(p.fieldAnns, FieldAnnotation{Field: v, Owner: tn, D: d})
				}
			}
			return true
		}
	}
	return false
}

// collectAddrTaken finds every declared function whose value is used
// outside call position — assigned, passed, stored, returned. Those (plus
// every function literal) are the candidates dynamic calls resolve to.
// Keys are funcKeys: a function address-taken in one package must match
// its node even when the use site saw it through export data.
func (p *Program) collectAddrTaken() map[string]bool {
	taken := make(map[string]bool)
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			WalkStack(file, func(n ast.Node, stack []ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				if !inCallPosition(id, stack) {
					taken[funcKey(fn)] = true
				}
				return true
			})
		}
	}
	return taken
}

// inCallPosition reports whether the identifier is the operator of a call
// (directly, or as the Sel of a called selector) rather than a value use.
func inCallPosition(id *ast.Ident, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	parent := stack[len(stack)-1]
	if call, ok := parent.(*ast.CallExpr); ok {
		return call.Fun == id
	}
	sel, ok := parent.(*ast.SelectorExpr)
	if !ok || sel.Sel != id || len(stack) < 2 {
		return false
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	return ok && call.Fun == sel
}

// collectNamedTypes gathers every package-level named type in the
// program, the candidate set for interface-call resolution.
func (p *Program) collectNamedTypes() []*types.Named {
	var out []*types.Named
	for _, pkg := range p.Pkgs {
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				out = append(out, named)
			}
		}
	}
	return out
}

// buildEdges walks one node's body (not descending into nested literals,
// which are their own nodes) and records its outgoing call edges.
func (p *Program) buildEdges(n *FuncNode, addrTaken map[string]bool, named []*types.Named) {
	body := n.Body()
	if body == nil {
		return
	}
	info := n.Pkg.Info
	ast.Inspect(body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && x != n.Lit {
			_ = lit
			return false // separate node; edges only via calls to the value
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		p.addCallEdges(n, call, info, addrTaken, named)
		return true
	})
}

func (p *Program) addCallEdges(n *FuncNode, call *ast.CallExpr, info *types.Info, addrTaken map[string]bool, named []*types.Named) {
	fun := ast.Unparen(call.Fun)

	// Immediately-invoked literal: func(){...}().
	if lit, ok := fun.(*ast.FuncLit); ok {
		p.addEdge(n, p.byAST[lit])
		return
	}

	// Static callee (plain function, concrete method, or conversion).
	switch f := fun.(type) {
	case *ast.Ident:
		if callee, ok := info.Uses[f].(*types.Func); ok {
			p.addEdge(n, p.byFn[funcKey(callee)])
			return
		}
		if _, isType := info.Uses[f].(*types.TypeName); isType {
			return // conversion
		}
		if _, isBuiltin := info.Uses[f].(*types.Builtin); isBuiltin {
			return
		}
	case *ast.SelectorExpr:
		if callee, ok := info.Uses[f.Sel].(*types.Func); ok {
			if sel, selOK := info.Selections[f]; selOK && sel.Kind() == types.MethodVal {
				if types.IsInterface(sel.Recv().Underlying()) {
					p.addInterfaceEdges(n, sel.Recv(), callee, named)
					return
				}
			}
			p.addEdge(n, p.byFn[funcKey(callee)])
			return
		}
		if _, isType := info.Uses[f.Sel].(*types.TypeName); isType {
			return // qualified conversion
		}
	}

	// Dynamic call through a function value: resolve by identical
	// (receiver-stripped) signature over literals and address-taken decls.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	key := sigKey(sig)
	for _, cand := range p.nodes {
		switch {
		case cand.Lit != nil:
			if ls, ok := cand.Pkg.Info.TypeOf(cand.Lit).(*types.Signature); ok && sigKey(ls) == key {
				p.addEdge(n, cand)
			}
		case cand.Obj != nil && addrTaken[funcKey(cand.Obj)]:
			if ds, ok := cand.Obj.Type().(*types.Signature); ok && sigKey(ds) == key {
				p.addEdge(n, cand)
			}
		}
	}
}

// addInterfaceEdges resolves a call through interface method m to every
// in-program named type implementing the receiver interface.
func (p *Program) addInterfaceEdges(n *FuncNode, recv types.Type, m *types.Func, named []*types.Named) {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, nt := range named {
		if types.IsInterface(nt.Underlying()) {
			continue
		}
		if !implementsStructurally(nt, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(nt), true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			p.addEdge(n, p.byFn[funcKey(fn)])
		}
	}
}

// implementsStructurally reports whether the named type (through its
// pointer method set, the conservative superset) provides every method of
// iface with an identical package-qualified signature. It stands in for
// types.Implements because the program mixes type-checking universes: a
// Named type decoded from export data never pointer-compares equal to its
// source-checked twin, so types.Implements answers false across the
// boundary even for the same declaration. Method names plus sigKey strings
// are universe-independent.
func implementsStructurally(nt *types.Named, iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		im := iface.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(nt), true, im.Pkg(), im.Name())
		fn, ok := obj.(*types.Func)
		if !ok {
			return false
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return false
		}
		isig, ok := im.Type().(*types.Signature)
		if !ok {
			return false
		}
		if sigKey(sig) != sigKey(isig) {
			return false
		}
	}
	return true
}

func (p *Program) addEdge(from, to *FuncNode) {
	if to == nil || from.calleeSet[to] {
		return
	}
	from.calleeSet[to] = true
	from.callees = append(from.callees, to)
}

// sigKey renders a signature's parameter and result types (receiver
// excluded) into a comparison key, package-qualified so same-named types
// in different packages don't collide.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	qual := func(p *types.Package) string { return p.Path() }
	b.WriteByte('(')
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), qual))
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	b.WriteByte(')')
	for i := 0; i < sig.Results().Len(); i++ {
		b.WriteByte(',')
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), qual))
	}
	return b.String()
}

// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic).
// The build environment vendors no third-party modules, so gpulint carries
// its own framework: the API mirrors the upstream shapes closely enough
// that the analyzers would port to the real multichecker by swapping this
// import.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static check. Run inspects the package in Pass and
// reports findings through Pass.Report; it returns an error only for
// analyzer-internal failures (a nil return with diagnostics is the normal
// "found problems" outcome).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //gpulint:allow suppression comments.
	Name string
	// Doc is the one-paragraph description `gpulint -list` prints.
	Doc string
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Directives are the //gpulint: comments of the package's files, in
	// file/position order. Annotation-driven analyzers (cachekey, hotalloc)
	// read their markers here; suppression directives are applied by the
	// driver after the analyzer runs.
	Directives []Directive
	// Prog is the whole-program view (call graph, cross-package directive
	// attachment) when the driver loaded multiple packages together. Nil in
	// single-package runs; program-level analyzers then build a one-package
	// Program via ProgramFromPass, so fixtures exercise the same code path.
	Prog   *Program
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Directive kinds; see DESIGN.md "Determinism contract" for the grammar.
const (
	// KindOrderedIrrelevant suppresses a detmap finding on the same or next
	// line: //gpulint:ordered-irrelevant <why order cannot matter>
	KindOrderedIrrelevant = "ordered-irrelevant"
	// KindAllow suppresses the named analyzers on the same or next line:
	// //gpulint:allow analyzer[,analyzer] <reason>
	KindAllow = "allow"
	// KindHotpath marks the annotated function for the hotalloc analyzer:
	// //gpulint:hotpath
	KindHotpath = "hotpath"
	// KindCachekey requires the annotated function to reference every
	// exported field of the named package-local struct type:
	// //gpulint:cachekey TypeName
	KindCachekey = "cachekey"
	// KindPhaseA marks the annotated function as a root of a core's own
	// tick path for the wakesync analyzer — code below it reads the core's
	// lazy counters at the core's own watermark:
	// //gpulint:phasea <why reads below this root are current>
	KindPhaseA = "phasea"
	// KindSynced marks the annotated function as a wake/sync funnel (or a
	// reader that provably runs after one), exempting its lazy-counter
	// reads from the wakesync analyzer: //gpulint:synced <why it is synced>
	KindSynced = "synced"
	// KindLazy marks the annotated struct field as a lazily-accrued
	// container whose named sub-fields are only valid after a watermark
	// sync: //gpulint:lazy Field[,Field...] <what syncs them>
	KindLazy = "lazy"
	// KindGuardedby marks the annotated struct field as protected by the
	// named sibling mutex field: //gpulint:guardedby mu
	KindGuardedby = "guardedby"
)

// Directive is one parsed //gpulint: comment.
type Directive struct {
	Pos token.Pos
	// Kind is one of the Kind* constants, or the raw unknown word (the
	// driver reports those).
	Kind string
	// Args are the kind-specific arguments: the analyzer list for allow,
	// the type name for cachekey.
	Args []string
	// Reason is the trailing free text.
	Reason string
}

// ParseDirectives extracts the //gpulint: comments from the files. The
// text after the kind word is split per kind: allow and cachekey take one
// argument word, everything else is reason text. Anything from an embedded
// "// want" onward is ignored so analysistest fixtures can carry
// expectations on directive lines.
func ParseDirectives(files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//gpulint:")
				if !ok {
					continue
				}
				if i := strings.Index(text, "// want"); i >= 0 {
					text = text[:i]
				}
				kind, rest, _ := strings.Cut(strings.TrimSpace(text), " ")
				rest = strings.TrimSpace(rest)
				d := Directive{Pos: c.Pos(), Kind: kind}
				switch kind {
				case KindAllow, KindCachekey, KindLazy, KindGuardedby:
					arg, reason, _ := strings.Cut(rest, " ")
					if arg != "" {
						d.Args = strings.Split(arg, ",")
					}
					d.Reason = strings.TrimSpace(reason)
				default:
					d.Reason = rest
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// WalkStack traverses root like ast.Inspect but hands fn the path of
// ancestors (outermost first, excluding n itself). Several analyzers need
// the enclosing statement context of a node; the upstream framework gets
// this from the inspector package, we carry a small explicit stack.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

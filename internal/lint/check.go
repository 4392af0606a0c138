package lint

import (
	"go/token"

	"gpusched/internal/lint/analysis"
	"gpusched/internal/lint/load"
)

// Check runs the suite over one package in isolation. Prefer CheckAll for
// multi-package runs: the whole-program analyzers (wakesync, ctxflow) only see cross-package call edges when the packages are loaded
// together.
func Check(fset *token.FileSet, pkg *load.Package) []analysis.Diagnostic {
	return CheckAll(fset, []*load.Package{pkg})
}

// CheckAll runs every suite analyzer over the loaded packages, sharing one
// whole-program view (call graph + directive attachment) across all of
// them, applies each package's suppression directives, and returns the
// surviving diagnostics sorted by position. This is the one entry point
// cmd/gpulint and the self-test share, so "the repo is gpulint-clean"
// means the same thing in CI and in `go test ./internal/lint`.
func CheckAll(fset *token.FileSet, pkgs []*load.Package) []analysis.Diagnostic {
	dirsOf := make(map[*load.Package][]analysis.Directive, len(pkgs))
	progPkgs := make([]*analysis.ProgPkg, 0, len(pkgs))
	for _, pkg := range pkgs {
		dirs := analysis.ParseDirectives(pkg.Files)
		dirsOf[pkg] = dirs
		progPkgs = append(progPkgs, &analysis.ProgPkg{
			Pkg: pkg.Types, Info: pkg.Info, Files: pkg.Files, Directives: dirs,
		})
	}
	prog := analysis.NewProgram(fset, progPkgs)

	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		dirs := dirsOf[pkg]
		active := make(map[string]bool)
		var diags []analysis.Diagnostic
		for _, c := range Suite() {
			if !c.Match(pkg.Path) {
				continue
			}
			active[c.Analyzer.Name] = true
			pass := &analysis.Pass{
				Analyzer:   c.Analyzer,
				Fset:       fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				Directives: dirs,
				Prog:       prog,
				Report:     func(d analysis.Diagnostic) { diags = append(diags, d) },
			}
			// Analyzer-internal failures surface as diagnostics too: a linter
			// that silently skips a package is a linter that silently stops
			// enforcing its contract.
			if err := c.Analyzer.Run(pass); err != nil {
				diags = append(diags, analysis.Diagnostic{
					Pos:      pkg.Files[0].Pos(),
					Analyzer: c.Analyzer.Name,
					Message:  "analyzer failed: " + err.Error(),
				})
			}
		}
		all = append(all, ApplySuppressions(fset, diags, dirs, active)...)
	}
	SortDiagnostics(fset, all)
	return all
}

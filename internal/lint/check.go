package lint

import (
	"go/token"

	"gpusched/internal/lint/analysis"
	"gpusched/internal/lint/load"
)

// CheckAll runs every suite analyzer over the loaded packages, applies each
// package's suppression directives, and returns the surviving diagnostics
// sorted by position. This is the one entry point cmd/gpulint and the
// self-test share, so "the repo is gpulint-clean" means the same thing in CI
// and in `go test ./internal/lint`.
func CheckAll(fset *token.FileSet, pkgs []*load.Package) []analysis.Diagnostic {
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		dirs := analysis.ParseDirectives(pkg.Files)
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

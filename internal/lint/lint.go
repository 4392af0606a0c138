// Package lint is gpulint: a suite of static analyzers that turn the
// simulator's determinism and cache-key invariants from reviewer lore into
// build failures. See DESIGN.md "Determinism contract" for the contract
// each analyzer enforces and the annotation grammar that suppresses or
// drives them.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"gpusched/internal/lint/analysis"
)

// DetPackages are the packages whose observable behaviour must be a pure
// function of their inputs: everything between a kernel spec and a result
// table. detmap and wallclock police these.
var DetPackages = []string{
	"internal/gpu", "internal/sm", "internal/mem",
	"internal/core", "internal/kernel", "internal/isa", "internal/workloads",
	"internal/harness", "internal/stats",
}

// CycleLoopPackages are the subset that executes inside gpu.RunContext's
// cycle loop, where any goroutine or channel operation would make replay
// (and the event-horizon fast-forward) unsound. nogoroutine polices these,
// and that ban is the cycle loop's whole concurrency contract: the one
// reasoned //gpulint:allow nogoroutine in them is RunContext's cancellation
// poll (the self-check test counts it).
var CycleLoopPackages = []string{
	"internal/gpu", "internal/sm", "internal/mem", "internal/core",
}

// ConcurrencyPackages are the serving-tier packages whose goroutines hold
// locks and block on the network: the fleet router/prober, the daemon's
// job manager, and the singleflight service. guardedby and ctxflow police
// these (the simulator packages are not allowed goroutines at all).
var ConcurrencyPackages = []string{
	"internal/fleet", "internal/server", "internal/sim",
}

// ScopedAnalyzer pairs an analyzer with the packages it applies to.
type ScopedAnalyzer struct {
	Analyzer *analysis.Analyzer
	// Match reports whether the analyzer runs on the package path.
	Match func(pkgPath string) bool
}

// matchSuffix matches a package whose import path ends in one of the
// module-relative suffixes (the module prefix varies between the real
// module path and test fixtures).
func matchSuffix(suffixes []string) func(string) bool {
	return func(path string) bool {
		for _, s := range suffixes {
			if path == s || strings.HasSuffix(path, "/"+s) {
				return true
			}
		}
		return false
	}
}

func matchAll(string) bool { return true }

// Suite returns the gpulint analyzer suite with its package scoping:
// detmap guards every package (nondeterministic ordering anywhere leaks
// into user-visible output), wallclock only the deterministic simulation
// packages (servers may read clocks), nogoroutine only the cycle-loop
// packages, and the annotation-driven cachekey/hotalloc run wherever their
// markers appear.
func Suite() []ScopedAnalyzer {
	return []ScopedAnalyzer{
		{Detmap, matchAll},
		{Wallclock, matchSuffix(DetPackages)},
		{Nogoroutine, matchSuffix(CycleLoopPackages)},
		{Cachekey, matchAll},
		{Hotalloc, matchAll},
		// The whole-program analyzers: wakesync/guardedby are
		// annotation-driven and run everywhere their markers can appear;
		// ctxflow's blocking-call bans are a serving-tier policy, so it is
		// scoped to the concurrency packages.
		{Wakesync, matchAll},
		{Guardedby, matchAll},
		{Ctxflow, matchSuffix(ConcurrencyPackages)},
	}
}

// Analyzers returns every analyzer in the suite.
func Analyzers() []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, c := range Suite() {
		out = append(out, c.Analyzer)
	}
	return out
}

// suppressionTargets resolves which analyzers a directive suppresses
// (nil for non-suppressing directive kinds).
func suppressionTargets(d analysis.Directive) []string {
	switch d.Kind {
	case analysis.KindOrderedIrrelevant:
		return []string{Detmap.Name}
	case analysis.KindAllow:
		return d.Args
	}
	return nil
}

// knownDirectives is the full annotation grammar, in the order the
// unknown-directive diagnostic lists it.
var knownDirectives = []string{
	analysis.KindOrderedIrrelevant, analysis.KindAllow,
	analysis.KindHotpath, analysis.KindCachekey,
	analysis.KindPhaseA, analysis.KindSynced, analysis.KindLazy,
	analysis.KindGuardedby,
}

// knownDirective reports whether the kind is part of the grammar.
func knownDirective(kind string) bool {
	for _, k := range knownDirectives {
		if kind == k {
			return true
		}
	}
	return false
}

// ApplySuppressions filters diags through the package's suppression
// directives and appends the meta-diagnostics the grammar itself demands:
// a suppression comment that suppressed nothing is reported (stale
// justifications are how invariants rot), as are unknown directive kinds
// and allow-targets naming no analyzer that ran. A directive suppresses
// matching diagnostics on its own line and the next one, so it can ride at
// the end of the offending line or on a comment line above it. active
// names the analyzers that actually ran on the package.
func ApplySuppressions(fset *token.FileSet, diags []analysis.Diagnostic, dirs []analysis.Directive, active map[string]bool) []analysis.Diagnostic {
	type target struct {
		d        *analysis.Directive
		analyzer string
		used     bool
	}
	var targets []*target
	// byLoc indexes targets by file and line for the two-line window.
	byLoc := make(map[string]map[int][]*target)
	var out []analysis.Diagnostic
	for i := range dirs {
		d := &dirs[i]
		if !knownDirective(d.Kind) {
			out = append(out, analysis.Diagnostic{
				Pos: d.Pos, Analyzer: "gpulint",
				Message: fmt.Sprintf("unknown directive //gpulint:%s (want %s)", d.Kind,
					strings.Join(knownDirectives, ", ")),
			})
			continue
		}
		pos := fset.Position(d.Pos)
		for _, name := range suppressionTargets(*d) {
			t := &target{d: d, analyzer: name}
			targets = append(targets, t)
			if byLoc[pos.Filename] == nil {
				byLoc[pos.Filename] = make(map[int][]*target)
			}
			byLoc[pos.Filename][pos.Line] = append(byLoc[pos.Filename][pos.Line], t)
		}
	}

	for _, diag := range diags {
		pos := fset.Position(diag.Pos)
		suppressed := false
		for _, line := range []int{pos.Line, pos.Line - 1} {
			for _, t := range byLoc[pos.Filename][line] {
				if t.analyzer == diag.Analyzer {
					t.used = true
					suppressed = true
				}
			}
		}
		if !suppressed {
			out = append(out, diag)
		}
	}

	for _, t := range targets {
		if t.used {
			continue
		}
		if !active[t.analyzer] {
			if t.d.Kind == analysis.KindAllow && !knownAnalyzer(t.analyzer) {
				out = append(out, analysis.Diagnostic{
					Pos: t.d.Pos, Analyzer: "gpulint",
					Message: fmt.Sprintf("//gpulint:allow names unknown analyzer %q", t.analyzer),
				})
			}
			// The target analyzer did not run on this package (e.g. a
			// single-analyzer test pass); silence would be unfounded either way.
			continue
		}
		out = append(out, analysis.Diagnostic{
			Pos: t.d.Pos, Analyzer: t.analyzer,
			Message: fmt.Sprintf("unused //gpulint:%s suppression: no %s diagnostic on this or the next line", t.d.Kind, t.analyzer),
		})
	}

	SortDiagnostics(fset, out)
	return out
}

// reportMisattached flags structural directives of the given kinds (in the
// current package) that resolved to no function or field — an annotation
// floating next to nothing enforces nothing.
func reportMisattached(pass *analysis.Pass, prog *analysis.Program, kinds map[string]string) {
	attached := prog.AttachedPositions()
	for _, d := range pass.Directives {
		want, tracked := kinds[d.Kind]
		if !tracked || attached[d.Pos] {
			continue
		}
		pass.Reportf(d.Pos, "//gpulint:%s is not attached to %s", d.Kind, want)
	}
}

func knownAnalyzer(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// SortDiagnostics orders diags by file position then analyzer name, so
// gpulint's own output is deterministic — the linter practices what it
// preaches.
func SortDiagnostics(fset *token.FileSet, diags []analysis.Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Offset != pj.Offset {
			return pi.Offset < pj.Offset
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}

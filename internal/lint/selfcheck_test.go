package lint_test

import (
	"go/token"
	"path/filepath"
	"sync"
	"testing"

	"gpusched/internal/lint"
	"gpusched/internal/lint/analysis"
	"gpusched/internal/lint/load"
)

// The self-checks share one load of the whole module, exactly as cmd/gpulint
// loads it.
var (
	repoOnce sync.Once
	repoPkgs []*load.Package
	repoFset *token.FileSet
	repoErr  error
)

func repoPackages(t *testing.T) ([]*load.Package, *token.FileSet) {
	t.Helper()
	if testing.Short() {
		t.Skip("shells out to go list -export over the whole module")
	}
	repoOnce.Do(func() { repoPkgs, repoFset, repoErr = load.Load("../..", "./...") })
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	if len(repoPkgs) == 0 {
		t.Fatal("load.Load returned no packages")
	}
	return repoPkgs, repoFset
}

// TestRepoGpulintClean runs the full suite over the module itself, exactly
// as cmd/gpulint does. The repo carrying zero unsuppressed diagnostics is
// part of the determinism contract, so drift fails `go test` too, not just
// `make lint`.
func TestRepoGpulintClean(t *testing.T) {
	pkgs, fset := repoPackages(t)
	// One whole-program pass, exactly as cmd/gpulint runs it: the
	// call-graph analyzers need every package loaded together.
	for _, d := range lint.CheckAll(fset, pkgs) {
		t.Errorf("%s: %s (%s)", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}

// TestCycleLoopHasOneConcurrencyCarveOut makes "no concurrency in the cycle
// loop" mechanical: nogoroutine bans goroutines and channels in the
// cycle-loop packages, and the only reasoned exception they may carry is
// RunContext's cancellation poll. A second //gpulint:allow nogoroutine is a
// second way for host scheduling to reach simulated state, and fails here
// however well it is justified in its comment.
func TestCycleLoopHasOneConcurrencyCarveOut(t *testing.T) {
	pkgs, fset := repoPackages(t)
	var inCycleLoop func(pkgPath string) bool
	for _, c := range lint.Suite() {
		if c.Analyzer == lint.Nogoroutine {
			inCycleLoop = c.Match
		}
	}
	var allows []token.Position
	for _, pkg := range pkgs {
		if !inCycleLoop(pkg.Path) {
			continue
		}
		for _, d := range analysis.ParseDirectives(pkg.Files) {
			if d.Kind != analysis.KindAllow {
				continue
			}
			for _, target := range d.Args {
				if target == lint.Nogoroutine.Name {
					allows = append(allows, fset.Position(d.Pos))
				}
			}
		}
	}
	if len(allows) != 1 || filepath.Base(allows[0].Filename) != "gpu.go" {
		t.Errorf("cycle-loop packages carry %d //gpulint:allow nogoroutine, want exactly one (the RunContext cancellation poll in gpu.go): %v",
			len(allows), allows)
	}
}

// Command gpulint runs the repo's determinism, cache-key, and context
// contract analyzers (internal/lint) over the module, multichecker style:
//
//	gpulint ./...            # what make lint and CI run
//	gpulint -list            # describe the analyzers
//	gpulint -github ./...    # GitHub Actions ::error annotations
//	gpulint ./internal/sim   # one package
//
// Diagnostics print as file:line:col: message (analyzer), sorted, and any
// finding exits 1. -github adds workflow commands so CI annotates the
// offending lines in pull requests. Suppressions and annotations are
// //gpulint: comments; see DESIGN.md "Determinism contract" and
// "Concurrency contracts".
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gpusched/internal/lint"
	"gpusched/internal/lint/load"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	github := flag.Bool("github", false, "emit GitHub Actions ::error workflow commands alongside the plain output")
	flag.Parse()

	if *list {
		for _, c := range lint.Suite() {
			fmt.Printf("%-12s %s\n", c.Analyzer.Name, c.Analyzer.Doc)
		}
		return
	}

	n, err := run(flag.Args(), *github)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpulint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "gpulint: %d diagnostic(s)\n", n)
		os.Exit(1)
	}
}

func run(patterns []string, github bool) (int, error) {
	pkgs, fset, err := load.Load("", patterns...)
	if err != nil {
		return 0, err
	}
	diags := lint.CheckAll(fset, pkgs)
	for _, d := range diags {
		p := fset.Position(d.Pos)
		fmt.Printf("%s:%d:%d: %s (%s)\n", p.Filename, p.Line, p.Column, d.Message, d.Analyzer)
		if github {
			// Workflow command grammar: property values escape %, CR, LF,
			// ',' and ':'; the free-text message escapes %, CR, LF.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=gpulint %s::%s\n",
				escapeProp(p.Filename), p.Line, p.Column, escapeProp(d.Analyzer), escapeData(d.Message))
		}
	}
	return len(diags), nil
}

func escapeData(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

func escapeProp(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
	return r.Replace(s)
}

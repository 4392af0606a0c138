// Command gpulint runs the repo's determinism, cache-key, and context
// contract analyzers (internal/lint) over the module, multichecker style:
//
//	gpulint ./...            # what make lint and CI run
//	gpulint -list            # describe the analyzers
//	gpulint -json ./...      # machine-readable diagnostics on stdout
//	gpulint -github ./...    # GitHub Actions ::error annotations
//	gpulint ./internal/sim   # one package
//
// Diagnostics print as file:line:col: message (analyzer), sorted, and any
// finding exits 1. -json emits one JSON array of {file,line,col,analyzer,
// message} objects instead; -github adds workflow commands so CI annotates
// the offending lines in pull requests. Suppressions and annotations are
// //gpulint: comments; see DESIGN.md "Determinism contract" and
// "Concurrency contracts".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"gpusched/internal/lint"
	"gpusched/internal/lint/load"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	dir := flag.String("C", "", "change to this directory before loading packages")
	asJSON := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	github := flag.Bool("github", false, "emit GitHub Actions ::error workflow commands alongside the plain output")
	flag.Parse()

	if *list {
		for _, c := range lint.Suite() {
			fmt.Printf("%-12s %s\n", c.Analyzer.Name, c.Analyzer.Doc)
		}
		return
	}

	n, err := run(*dir, flag.Args(), *asJSON, *github)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpulint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "gpulint: %d diagnostic(s)\n", n)
		os.Exit(1)
	}
}

// jsonDiag is the machine-readable diagnostic shape -json emits.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(dir string, patterns []string, asJSON, github bool) (int, error) {
	pkgs, fset, err := load.Load(dir, patterns...)
	if err != nil {
		return 0, err
	}
	diags := lint.CheckAll(fset, pkgs)

	out := make([]jsonDiag, len(diags))
	for i, d := range diags {
		p := fset.Position(d.Pos)
		out[i] = jsonDiag{File: p.Filename, Line: p.Line, Col: p.Column, Analyzer: d.Analyzer, Message: d.Message}
	}

	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return 0, err
		}
		return len(out), nil
	}
	for _, d := range out {
		fmt.Printf("%s:%d:%d: %s (%s)\n", d.File, d.Line, d.Col, d.Message, d.Analyzer)
		if github {
			// Workflow command grammar: property values escape %, CR, LF,
			// ',' and ':'; the free-text message escapes %, CR, LF.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=gpulint %s::%s\n",
				escapeProp(d.File), d.Line, d.Col, escapeProp(d.Analyzer), escapeData(d.Message))
		}
	}
	return len(out), nil
}

func escapeData(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

func escapeProp(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
	return r.Replace(s)
}

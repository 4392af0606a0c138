// Command paperbench regenerates every table and figure of the paper
// reproduction and writes them as text (stdout) and CSV (results/). Each
// experiment's wall time goes to stderr, so stdout depends only on what
// was simulated.
//
//	paperbench                  # all experiments, full scale (minutes)
//	paperbench -scale small     # quicker, smaller grids
//	paperbench -exp fig5,fig8   # a subset
//	paperbench -list            # enumerate experiments
//
// Simulation results persist under <out>/.simcache by default, so a rerun
// (or a second experiment subset sharing runs with the first) skips
// completed simulations. Failed experiments are reported on stderr and the
// process exits non-zero, but the remaining experiments still run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gpusched/internal/harness"
	"gpusched/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// resolveCacheDir maps the -cache flag to a directory: "auto" places the
// cache inside the CSV output directory (no caching when CSVs are off),
// "off"/"" disables it, anything else is used verbatim.
func resolveCacheDir(cache, outDir string) string {
	switch cache {
	case "off", "":
		return ""
	case "auto":
		if outDir == "" {
			return ""
		}
		return filepath.Join(outDir, ".simcache")
	default:
		return cache
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag   = fs.String("exp", "all", "comma-separated experiment ids (or 'all')")
		scale     = fs.String("scale", "full", "problem scale: "+sim.ScaleFlagHelp)
		outDir    = fs.String("out", "results", "directory for CSV output ('' = none)")
		cacheFlag = fs.String("cache", "auto", "simulation cache dir: auto = <out>/.simcache, off = disabled")
		cores     = fs.Int("cores", 0, "override SM count (0 = default 15)")
		list      = fs.Bool("list", false, "list experiments and exit")
		progress  = fs.Bool("v", false, "log each simulation run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Desc)
		}
		return 0
	}

	scaleVal, err := sim.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	opt := harness.Options{
		Scale:    scaleVal,
		Cores:    *cores,
		CacheDir: resolveCacheDir(*cacheFlag, *outDir),
	}
	if *progress {
		opt.Progress = stderr
	}

	var selected []harness.Experiment
	if *expFlag == "all" {
		selected = harness.Experiments()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := harness.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	h := harness.New(opt)
	var failures []string
	for _, e := range selected {
		start := time.Now()
		table, err := e.Run(h)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", e.ID, err))
			fmt.Fprintf(stderr, "error: %s: %v\n", e.ID, err)
			continue
		}
		table.Render(stdout)
		fmt.Fprintln(stdout)
		fmt.Fprintf(stderr, "(%s in %.1fs)\n", e.ID, time.Since(start).Seconds())
		if *outDir != "" {
			if err := writeCSV(*outDir, e.ID, table); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}
	if len(failures) > 0 {
		fmt.Fprintf(stderr, "\n%d of %d experiments failed:\n", len(failures), len(selected))
		for _, f := range failures {
			fmt.Fprintf(stderr, "  %s\n", f)
		}
		return 1
	}
	return 0
}

func writeCSV(dir, id string, table *harness.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	table.CSV(f)
	return f.Close()
}

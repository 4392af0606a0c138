// Command benchjson converts `go test -bench` output into a stable JSON
// record and compares two such records benchstat-style. It exists so CI can
// commit a benchmark baseline (results/BENCH_*.json) and report drift
// against it without external tooling.
//
//	go test -bench . -benchmem | benchjson -out results/BENCH_8.json
//	benchjson -compare results/BENCH_6.json results/BENCH_8.json
//	benchjson -compare -assert 'Fig5LCS:allocs/op<=5e6' old.json new.json
//
// The JSON maps benchmark name (GOMAXPROCS suffix stripped) to its metrics:
// ns/op always, plus B/op, allocs/op, and any custom b.ReportMetric units
// (simcycles/s, geomean-speedup, ...). When a benchmark appears several
// times (-count > 1) the metrics are averaged. The record also carries the
// host shape (NumCPU, GOMAXPROCS) it was captured on, so a reader can tell
// which machine a row came from; -compare reports rows present in both
// records and skips the rest.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Record is the persisted benchmark snapshot.
type Record struct {
	// Host is the machine shape the benchmarks ran on. Nil in records
	// written before the field existed.
	Host *HostInfo `json:"host,omitempty"`
	// Benchmarks maps benchmark name to unit ("ns/op", "simcycles/s", ...)
	// to value.
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

// HostInfo pins the hardware context a benchmark record was captured in.
type HostInfo struct {
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

// multiFlag collects repeated -assert values.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var (
		out     = flag.String("out", "", "write parsed JSON to this file (default stdout)")
		compare = flag.Bool("compare", false, "compare two JSON records: benchjson -compare old.json new.json")
		asserts multiFlag
	)
	flag.Var(&asserts, "assert", "with -compare: threshold on the new record, 'name:unit<=value' (repeatable); violation is a hard failure")
	flag.Parse()
	if err := run(*out, *compare, asserts, flag.Args(), os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run(out string, compare bool, asserts []string, args []string, stdin io.Reader, stdout io.Writer) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs exactly two files, got %d", len(args))
		}
		return runCompare(args[0], args[1], asserts, stdout)
	}
	if len(asserts) > 0 {
		return fmt.Errorf("-assert requires -compare")
	}
	rec, err := Parse(stdin)
	if err != nil {
		return err
	}
	if len(rec.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	rec.Host = &HostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// Parse extracts benchmark results from `go test -bench` output. Lines it
// does not recognize are ignored, so the full test output can be piped in.
func Parse(r io.Reader) (*Record, error) {
	rec := &Record{Benchmarks: map[string]map[string]float64{}}
	counts := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// BenchmarkName-8  20  123 ns/op  456 custom/unit  [...]
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not an iteration count: some other Benchmark* text
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the GOMAXPROCS suffix
			}
		}
		metrics := map[string]float64{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			metrics[fields[i+1]] = v
		}
		if len(metrics) == 0 {
			continue
		}
		counts[name]++
		if prev, ok := rec.Benchmarks[name]; ok {
			// Running mean over -count repetitions.
			n := float64(counts[name])
			//gpulint:ordered-irrelevant independent per-unit mean updates commute; output order comes from json.Marshal's sorted map keys
			for unit, v := range metrics {
				prev[unit] += (v - prev[unit]) / n
			}
		} else {
			rec.Benchmarks[name] = metrics
		}
	}
	return rec, sc.Err()
}

func load(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// assertion is one parsed -assert threshold.
type assertion struct {
	name  string
	unit  string
	limit float64
}

func parseAssert(s string) (assertion, error) {
	head, limitStr, ok := strings.Cut(s, "<=")
	if !ok {
		return assertion{}, fmt.Errorf("assert %q: want 'name:unit<=value'", s)
	}
	name, unit, ok := strings.Cut(head, ":")
	if !ok || name == "" || unit == "" {
		return assertion{}, fmt.Errorf("assert %q: want 'name:unit<=value'", s)
	}
	limit, err := strconv.ParseFloat(strings.TrimSpace(limitStr), 64)
	if err != nil {
		return assertion{}, fmt.Errorf("assert %q: bad limit: %v", s, err)
	}
	return assertion{name: strings.TrimSpace(name), unit: strings.TrimSpace(unit), limit: limit}, nil
}

// runCompare prints a benchstat-style delta table. A missing old file is
// reported but not an error, so CI works on the first run that establishes
// a baseline. Assertions are checked against the new record (whether or not
// a baseline exists) and any violation is a hard error — the allocation
// budgets in CI ride on this.
func runCompare(oldPath, newPath string, asserts []string, w io.Writer) error {
	newRec, err := load(newPath)
	if err != nil {
		return err
	}
	var checked []assertion
	for _, s := range asserts {
		a, err := parseAssert(s)
		if err != nil {
			return err
		}
		checked = append(checked, a)
	}

	oldRec, err := load(oldPath)
	if os.IsNotExist(err) {
		fmt.Fprintf(w, "no baseline %s; nothing to compare\n", oldPath)
		return checkAsserts(checked, newRec, w)
	}
	if err != nil {
		return err
	}

	var names []string
	for name := range oldRec.Benchmarks {
		if _, ok := newRec.Benchmarks[name]; !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(w, "no common benchmarks")
		return checkAsserts(checked, newRec, w)
	}

	fmt.Fprintf(w, "%-50s %-12s %14s %14s %9s\n", "name", "unit", "old", "new", "delta")
	for _, name := range names {
		o, n := oldRec.Benchmarks[name], newRec.Benchmarks[name]
		var units []string
		for unit := range o {
			if _, ok := n[unit]; ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			delta := "~"
			if o[unit] != 0 {
				delta = fmt.Sprintf("%+.2f%%", (n[unit]-o[unit])/o[unit]*100)
			}
			fmt.Fprintf(w, "%-50s %-12s %14.6g %14.6g %9s\n", name, unit, o[unit], n[unit], delta)
		}
	}
	return checkAsserts(checked, newRec, w)
}

// checkAsserts enforces the -assert thresholds against the new record. A
// missing benchmark or unit fails too: a threshold that silently stops
// measuring is worse than one that trips.
func checkAsserts(asserts []assertion, rec *Record, w io.Writer) error {
	var failed []string
	for _, a := range asserts {
		m, ok := rec.Benchmarks[a.name]
		if !ok {
			failed = append(failed, fmt.Sprintf("%s:%s <= %g: benchmark missing from new record", a.name, a.unit, a.limit))
			continue
		}
		v, ok := m[a.unit]
		if !ok {
			failed = append(failed, fmt.Sprintf("%s:%s <= %g: unit missing from new record", a.name, a.unit, a.limit))
			continue
		}
		if v > a.limit {
			failed = append(failed, fmt.Sprintf("%s:%s = %g exceeds limit %g", a.name, a.unit, v, a.limit))
			continue
		}
		fmt.Fprintf(w, "assert ok: %s:%s = %g <= %g\n", a.name, a.unit, v, a.limit)
	}
	if len(failed) > 0 {
		return fmt.Errorf("assertion(s) failed:\n  %s", strings.Join(failed, "\n  "))
	}
	return nil
}

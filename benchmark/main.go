// Command gpubench is the repository's benchmark: five workloads, the
// end-to-end metrics BENCHMARK.json bounds, and a traced run that says
// where each layer's time goes. README.md in this directory describes the
// workloads, the metrics and how they are expected to move one another.
//
//	bash benchmark/run.sh -workload sim-issue -seed 1
//	bash benchmark/run.sh -workload all -seed 1 -out A.json
//	bash benchmark/run.sh -workload all -seed 1 -trace 1
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpubench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run, or \"all\" for each in a process of its own: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "seed of the item order and of the request schedule")
		seconds = fs.Float64("seconds", defaultSeconds, "length of the timed section")
		trace   = fs.Int("trace", 0, "1 records spans and a CPU profile and prints the per-layer metrics in place of the end-to-end ones")
		out     = fs.String("out", "", "also write the run record (or, with -workload all, the set of records) to this file")
		compare = fs.Bool("compare", false, "compare two record files given as arguments: gpubench -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "gpubench: -compare takes two record files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, *out, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "gpubench: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	rec, err := runWorkload(w, fullSizes, *seed, *seconds, *trace != 0)
	if err != nil {
		fmt.Fprintf(stderr, "gpubench: %s: %v\n", w.name, err)
		return 1
	}
	if *out != "" {
		if err := writeRecords(*out, []*record{rec}); err != nil {
			fmt.Fprintf(stderr, "gpubench: %v\n", err)
			return 1
		}
	}
	return report(rec, stdout)
}

func workloadNames() []string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return names
}

// repoRoot finds the checkout the benchmark runs in: the nearest directory
// at or above the working directory that holds BENCHMARK.json. Scratch
// files and trace output go under it and nowhere else.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

// scratchDir is where the benchmark keeps files it deletes again: under
// the build directory of the checkout.
func scratchDir() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, ".bench_build", "tmp")
	return dir, os.MkdirAll(dir, 0o755)
}

// environment is the part of the run record that says where it was taken.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
}

func readEnvironment() environment {
	env := environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	// The driver's checkout is not a git repository; a developer's is.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// kindRecord keeps one kind's raw samples.
type kindRecord struct {
	Kind    string  `json:"kind"`
	WallS   summary `json:"wall_s"`
	AllocMB summary `json:"alloc_mb"`
}

// requestRecord says how the load generator itself behaved.
type requestRecord struct {
	Clients        int     `json:"clients"`
	Requests       int     `json:"requests"`
	Misses         int     `json:"misses"`
	TailPercentile int     `json:"tail_percentile"`
	TailBeyond     int     `json:"tail_samples_beyond"`
	BusyS          float64 `json:"client_busy_s"`
	IdleS          float64 `json:"client_idle_s"`
}

// metricValue is one metric as the last output line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run of one workload leaves behind.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Traced      bool               `json:"traced"`
	Env         environment        `json:"environment"`
	Sizes       sizes              `json:"sizes"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	Digest      string             `json:"result_digest"`
	PassCycles  float64            `json:"simulated_cycles_per_pass"`
	PassInstr   float64            `json:"simulated_instr_per_pass"`
	Passes      float64            `json:"passes"`
	TimedWallS  float64            `json:"timed_section_s"`
	SetupS      []float64          `json:"setup_samples_s"`
	Kinds       []kindRecord       `json:"kinds"`
	Requests    *requestRecord     `json:"requests,omitempty"`
	EndToEnd    map[string]summary `json:"end_to_end,omitempty"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	SpansFile   string             `json:"spans_file,omitempty"`
	ProfileFile string             `json:"profile_file,omitempty"`
}

// metrics is what the last output line carries: the end-to-end metrics of
// an untraced run, the per-layer metrics of a traced one.
func (r *record) metrics() map[string]metricValue {
	m := map[string]metricValue{}
	if r.Traced {
		for _, d := range perLayer {
			m[d.Name] = metricValue{r.PerLayer[d.Name], d.Unit}
		}
		return m
	}
	for _, d := range endToEnd {
		m[d.Name] = metricValue{r.EndToEnd[d.Name].Median, d.Unit}
	}
	return m
}

// untracedShare is the part of a traced run's time spent on an untraced
// section first. It gives trace.overhead_ratio its base, and the results
// the traced section has to reproduce.
const untracedShare = 0.25

// runWorkload sets the workload up, measures it and checks it.
func runWorkload(w workload, sz sizes, seed int64, seconds float64, traced bool) (*record, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Set-up is repeated for a median: at least SetupReps times, and a
	// set-up of milliseconds until SetupSeconds have gone by, up to five
	// times as often.
	var inst *instance
	var setupS []float64
	total := 0.0
	for len(setupS) < sz.SetupReps || (total < sz.SetupSeconds && len(setupS) < 5*sz.SetupReps) {
		if inst != nil && inst.close != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(sz, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		total += setupS[len(setupS)-1]
	}
	if inst.close != nil {
		defer inst.close()
	}

	rec := &record{Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced, Env: readEnvironment(), Sizes: sz, SetupS: setupS}
	rng := rand.New(rand.NewSource(seed))
	refs := map[string][]byte{}
	var ph *phase
	if !traced {
		ph = measure(inst, seconds, sz.MinRounds, rng, nil, refs)
		rec.EndToEnd = endToEndValues(ph, setupS)
	} else {
		untraced := measure(inst, seconds*untracedShare, sz.MinRounds, rng, nil, refs)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		tr.on.Store(true)
		ph = measure(inst, seconds*(1-untracedShare), sz.MinRounds, rng, tr, refs)
		tr.on.Store(false)
		pprof.StopCPUProfile()
		ph.ops += untraced.ops
		ph.failed += untraced.failed
		ph.failures = append(untraced.failures, ph.failures...)

		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		if rec.PerLayer, err = perLayerValues(ph, untraced, tr, samples); err != nil {
			return nil, err
		}
		if inst.extra != nil {
			ops, failures := inst.extra(rec.PerLayer)
			ph.ops += ops
			for _, f := range failures {
				ph.fail(f)
			}
		}
		if err := writeTrace(rec, tr, prof.Bytes()); err != nil {
			return nil, err
		}
	}

	rec.Attempted, rec.Failed, rec.Failures = ph.ops, ph.failed, ph.failures
	rec.Correct = ph.failed == 0 && ph.ops > 0
	rec.Digest = digest(refs)
	rec.PassCycles, rec.PassInstr = ph.passWork()
	rec.Passes, rec.TimedWallS = ph.passes(), ph.wallS
	for _, name := range sortedKeys(ph.kinds) {
		k := ph.kinds[name]
		rec.Kinds = append(rec.Kinds, kindRecord{name, summarize(k.wall, true), summarize(k.allocMB, true)})
	}
	if all := ph.req.all(); len(all) > 0 {
		p := tailPercentile(len(all))
		rec.Requests = &requestRecord{
			Clients: sz.Fleet.clients(), Requests: len(all), Misses: len(ph.req.missMS),
			TailPercentile: p, TailBeyond: len(all) * (100 - p) / 100,
			BusyS: ph.req.busyS, IdleS: ph.req.idleS,
		}
	}
	return rec, nil
}

// writeTrace writes the spans and the CPU profile of a traced run under
// benchmark/out/.
func writeTrace(rec *record, tr *tracer, profile []byte) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := fmt.Sprintf("%s-seed%d", rec.Workload, rec.Seed)
	rec.SpansFile = filepath.Join("benchmark", "out", stem+".spans.json")
	rec.ProfileFile = filepath.Join("benchmark", "out", stem+".cpu.pprof")
	if err := tr.write(filepath.Join(root, rec.SpansFile)); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, rec.ProfileFile), profile, 0o644)
}

func writeRecords(path string, recs []*record) error {
	data, err := json.MarshalIndent(struct {
		Runs []*record `json:"runs"`
	}{recs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// report prints every metric by name with its unit, what the checks
// found, and as the last line the result object the driver reads. The exit
// status is 1 when a check failed.
func report(rec *record, stdout io.Writer) int {
	defs, metrics := endToEnd, rec.metrics()
	if rec.Traced {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  traced %t  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		rec.Workload, rec.Seed, rec.Traced, rec.Env.NumCPU, rec.Env.GOMAXPROCS, rec.Env.GoVersion, rec.Env.Commit)
	fmt.Fprintf(stdout, "%.1f passes in %.2f s, %d operations checked, %d failed\n", rec.Passes, rec.TimedWallS, rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintf(stdout, "FAILED %s\n", f)
	}
	for _, d := range defs {
		v := metrics[d.Name]
		if s, ok := rec.EndToEnd[d.Name]; ok {
			fmt.Fprintf(stdout, "%-12s %-30s %14.6g %-9s q1 %.6g  q3 %.6g  n %d\n", rec.Workload, d.Name, v.Value, v.Unit, s.Q1, s.Q3, s.N)
		} else {
			fmt.Fprintf(stdout, "%-12s %-30s %14.6g %s\n", rec.Workload, d.Name, v.Value, v.Unit)
		}
	}
	if rec.Requests != nil {
		fmt.Fprintf(stdout, "%d requests from %d closed-loop clients, %d of them misses; tail is p%d with %d samples beyond it; clients idle %.1f%% of the time\n",
			rec.Requests.Requests, rec.Requests.Clients, rec.Requests.Misses, rec.Requests.TailPercentile, rec.Requests.TailBeyond,
			100*ratio(rec.Requests.IdleS, rec.Requests.IdleS+rec.Requests.BusyS))
	}
	if rec.SpansFile != "" {
		fmt.Fprintf(stdout, "spans in %s, CPU profile in %s\n", rec.SpansFile, rec.ProfileFile)
	}
	fmt.Fprintf(stdout, "%-12s result_digest %s\n", rec.Workload, rec.Digest)
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		panic(err) // numbers and strings only
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if !rec.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a process of its own, so that peak memory
// and the heap one workload leaves behind do not reach the next, and
// gathers their records.
func runAll(seed int64, seconds float64, trace int, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "gpubench: %v\n", err)
		return 1
	}
	tmpDir, err := scratchDir()
	if err != nil {
		fmt.Fprintf(stderr, "gpubench: %v\n", err)
		return 1
	}
	tmp := filepath.Join(tmpDir, fmt.Sprintf("all-%d.json", os.Getpid()))
	defer os.Remove(tmp)

	status := 0
	var recs []*record
	for _, w := range allWorkloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), "-out", tmp)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "gpubench: %s: %v\n", w.name, err)
			status = 1
		}
		got, err := readRecords(tmp)
		if err != nil || len(got) != 1 || got[0].Workload != w.name {
			fmt.Fprintf(stderr, "gpubench: %s left no record\n", w.name)
			status = 1
			continue
		}
		recs = append(recs, got[0])
		fmt.Fprintln(stdout)
	}
	if out != "" {
		if err := writeRecords(out, recs); err != nil {
			fmt.Fprintf(stderr, "gpubench: %v\n", err)
			return 1
		}
	}
	return status
}

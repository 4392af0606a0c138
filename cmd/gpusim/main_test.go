package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpusched/internal/sim"
)

// TestParseSched pins the scheduler spellings the CLI accepts — the parser
// is internal/sim's registry, so this is a contract test that the flag
// surface did not drift.
func TestParseSched(t *testing.T) {
	ok := []struct {
		in   string
		name string
	}{
		{"baseline", "baseline"},
		{"lcs", "lcs"},
		{"adaptive", "lcs-adaptive"},
		{"bcs", "bcs"},
		{"bcs:4", "bcs"},
		{"static:3", "static-3"},
		{"sequential", "sequential"},
	}
	for _, c := range ok {
		s, err := sim.ParseSched(c.in)
		if err != nil {
			t.Errorf("ParseSched(%q): %v", c.in, err)
			continue
		}
		if s.Name() != c.name {
			t.Errorf("ParseSched(%q).Name() = %q, want %q", c.in, s.Name(), c.name)
		}
	}
	for _, bad := range []string{"", "nope", "static", "static:x", "bcs:y"} {
		if _, err := sim.ParseSched(bad); err == nil {
			t.Errorf("ParseSched(%q) accepted", bad)
		}
	}
}

func TestRunList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, stderr %q", code, errb.String())
	}
	for _, want := range []string{"name", "vadd", "spmv"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	cases := [][]string{
		{"-workload", "no-such"},
		{"-sched", "nope"},
		{"-warp", "nope"},
		{"-size", "nope"},
		{"-engine-stats", "-trace", "unused.csv"},
	}
	for _, args := range cases {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr %q)", args, code, errb.String())
		}
	}
}

func TestRunTinyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	var out, errb strings.Builder
	if code := run([]string{"-workload", "vadd", "-size", "tiny", "-cores", "4"}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errb.String())
	}
	for _, want := range []string{"workload", "cycles", "IPC"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q in:\n%s", want, out.String())
		}
	}
}

// TestRunEngineStats: -engine-stats adds the execution accounting.
func TestRunEngineStats(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-workload", "vadd", "-size", "tiny", "-cores", "4", "-engine-stats"}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errb.String())
	}
	for _, want := range []string{"engine cycles", "fast-forwarded", "dispatcher ticks", "skipped", "served by a stall certificate", "evaluated for readiness", "partition ticks of", "SM ticks of"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q in:\n%s", want, out.String())
		}
	}
}

// goldenLCSEngine is gpusim's whole stdout for a tiny LCS run with
// -engine-stats. The simulator is deterministic, so any byte that moves
// here is a change in what the tool reports, not noise.
const goldenLCSEngine = `workload        vadd (CUDA SDK vectorAdd), 24 CTAs x 256 threads
scheduler       lcs CTA dispatch, gto warps, 4 SMs
cycles          3485 (timed out: false)
instructions    3072 warp (98304 thread), IPC 0.881
L1              0.0% hit, 0.0% merged into in-flight fills
L2              0.0% hit
DRAM            1152 reads, 573 writes, 83.1% row hits, 172-cycle avg queue
load latency    329 cycles avg
LCS limits      [4 3 3 3]
engine cycles   2701 ticked, 256 fast-forwarded, 528 batched
engine polls    48 dispatcher ticks, 2653 skipped
engine issue    5908 scheduler-cycles walked the warps, 17062 served by a stall certificate
engine evals    6616 warps evaluated for readiness by the walks
engine memory   4117 L2 partition ticks of 20910 partition-cycles
engine sm       4269 SM ticks of 13940 SM-cycles
`

// goldenTrace is gpusim's stdout for a tiny traced baseline run, with the
// trace path written as TRACE, and goldenTraceCSV the timeline it writes.
const goldenTrace = `timeline        3 samples -> TRACE (peak IPC 1.09, mean resident CTAs 17.0)
workload        vadd (CUDA SDK vectorAdd), 24 CTAs x 256 threads
scheduler       baseline CTA dispatch, gto warps, 4 SMs
cycles          3485 (timed out: false)
instructions    3072 warp (98304 thread), IPC 0.881
L1              0.0% hit, 0.0% merged into in-flight fills
L2              0.0% hit
DRAM            1152 reads, 573 writes, 83.1% row hits, 172-cycle avg queue
load latency    329 cycles avg
`

const goldenTraceCSV = `cycle,ipc,resident_ctas,active_cores,l1_miss_rate,dram_reads,dram_row_hit_rate
0,0.8857,24,4,1.0000,365,0.8381
1024,1.0859,19,4,1.0000,416,0.8016
2048,0.8701,8,3,1.0000,320,0.8427
`

// TestGoldenOutput pins gpusim's full stdout, byte for byte, for a run
// with -engine-stats and for a traced run (and the trace file it writes).
func TestGoldenOutput(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-workload", "vadd", "-size", "tiny", "-cores", "4", "-sched", "lcs", "-engine-stats"}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errb.String())
	}
	if out.String() != goldenLCSEngine {
		t.Errorf("-sched lcs -engine-stats stdout:\n%s\nwant:\n%s", out.String(), goldenLCSEngine)
	}

	path := filepath.Join(t.TempDir(), "trace.csv")
	out.Reset()
	errb.Reset()
	if code := run([]string{"-workload", "vadd", "-size", "tiny", "-cores", "4", "-trace", path}, &out, &errb); code != 0 {
		t.Fatalf("run -trace = %d, stderr %q", code, errb.String())
	}
	if got := strings.ReplaceAll(out.String(), path, "TRACE"); got != goldenTrace {
		t.Errorf("-trace stdout:\n%s\nwant:\n%s", got, goldenTrace)
	}
	csv, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(csv) != goldenTraceCSV {
		t.Errorf("trace CSV:\n%s\nwant:\n%s", csv, goldenTraceCSV)
	}
}

// TestZeroCoresReportsDefaultMachine: -cores 0 simulates the default
// 15-SM machine, and the header names the machine that ran, not the flag.
func TestZeroCoresReportsDefaultMachine(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-workload", "vadd", "-size", "tiny", "-cores", "0"}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "gto warps, 15 SMs\n") {
		t.Errorf("header does not name the 15-SM default machine:\n%s", out.String())
	}
}

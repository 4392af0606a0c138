package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
BenchmarkSimulatorThroughput/stall-heavy-8         	      20	   4000000 ns/op	  14000000 simcycles/s
BenchmarkSimulatorThroughput/stall-heavy-8         	      20	   2000000 ns/op	  10000000 simcycles/s
BenchmarkFig5LCS-8                                 	       1	 900000000 ns/op	     1.15 geomean-speedup	  360338 B/op	    3151 allocs/op
BenchmarkSchedulerOverheads/lcs-8                  	      20	   5000000 ns/op
PASS
ok  	gpusched	1.234s
`

func TestParse(t *testing.T) {
	rec, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	th, ok := rec.Benchmarks["SimulatorThroughput/stall-heavy"]
	if !ok {
		t.Fatalf("missing throughput benchmark: %v", rec.Benchmarks)
	}
	if th["ns/op"] != 3000000 || th["simcycles/s"] != 12000000 {
		t.Errorf("repeated runs not averaged: %v", th)
	}
	fig5 := rec.Benchmarks["Fig5LCS"]
	if fig5["geomean-speedup"] != 1.15 || fig5["allocs/op"] != 3151 {
		t.Errorf("custom/benchmem metrics wrong: %v", fig5)
	}
}

func TestEmitRecordsHost(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.json")
	if err := run(path, false, nil, nil, strings.NewReader(sample), nil); err != nil {
		t.Fatal(err)
	}
	rec, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Host == nil || rec.Host.NumCPU <= 0 || rec.Host.GOMAXPROCS <= 0 {
		t.Errorf("host info not recorded: %+v", rec.Host)
	}
}

func TestRoundTripAndCompare(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	if err := run(oldPath, false, nil, nil, strings.NewReader(sample), nil); err != nil {
		t.Fatal(err)
	}
	faster := strings.ReplaceAll(sample, "4000000 ns/op", "1000000 ns/op")
	faster = strings.ReplaceAll(faster, "2000000 ns/op", "1000000 ns/op")
	// A benchmark deleted since the baseline was recorded: absent from the
	// new record.
	faster = strings.ReplaceAll(faster, "BenchmarkSchedulerOverheads/lcs-8", "IgnoredSchedulerOverheads/lcs-8")
	if err := run(newPath, false, nil, nil, strings.NewReader(faster), nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run("", true, nil, []string{oldPath, newPath}, nil, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "SimulatorThroughput/stall-heavy") || !strings.Contains(out, "-66.67%") {
		t.Errorf("comparison missing expected delta:\n%s", out)
	}
	// Rows missing from the new record are skipped, not reported as drift:
	// a retired benchmark must not break comparisons against old baselines.
	if strings.Contains(out, "SchedulerOverheads") {
		t.Errorf("compare reported a row the new record does not have:\n%s", out)
	}
}

func TestCompareAsserts(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	if err := run(oldPath, false, nil, nil, strings.NewReader(sample), nil); err != nil {
		t.Fatal(err)
	}
	if err := run(newPath, false, nil, nil, strings.NewReader(sample), nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ok := []string{"Fig5LCS:allocs/op<=5e6"}
	if err := run("", true, ok, []string{oldPath, newPath}, nil, &buf); err != nil {
		t.Fatalf("passing assert failed: %v", err)
	}
	if !strings.Contains(buf.String(), "assert ok") {
		t.Errorf("missing assert confirmation:\n%s", buf.String())
	}
	bad := []string{"Fig5LCS:allocs/op<=100"}
	if err := run("", true, bad, []string{oldPath, newPath}, nil, &buf); err == nil {
		t.Fatal("exceeded threshold did not fail")
	}
	missing := []string{"NoSuchBench:allocs/op<=100"}
	if err := run("", true, missing, []string{oldPath, newPath}, nil, &buf); err == nil {
		t.Fatal("missing benchmark did not fail the assert")
	}
	malformed := []string{"Fig5LCS allocs"}
	if err := run("", true, malformed, []string{oldPath, newPath}, nil, &buf); err == nil {
		t.Fatal("malformed assert accepted")
	}
}

func TestCompareMissingBaseline(t *testing.T) {
	dir := t.TempDir()
	newPath := filepath.Join(dir, "new.json")
	if err := run(newPath, false, nil, nil, strings.NewReader(sample), nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run("", true, nil, []string{filepath.Join(dir, "absent.json"), newPath}, nil, &buf)
	if err != nil {
		t.Fatalf("missing baseline must not fail CI: %v", err)
	}
	if !strings.Contains(buf.String(), "no baseline") {
		t.Errorf("expected baseline notice, got %q", buf.String())
	}
	if _, statErr := os.Stat(newPath); statErr != nil {
		t.Fatal(statErr)
	}
	// Asserts still run against the new record even without a baseline.
	var buf2 bytes.Buffer
	bad := []string{"Fig5LCS:allocs/op<=100"}
	if err := run("", true, bad, []string{filepath.Join(dir, "absent.json"), newPath}, nil, &buf2); err == nil {
		t.Fatal("assert skipped when baseline missing")
	}
}

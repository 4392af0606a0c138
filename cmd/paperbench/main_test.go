package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpusched/internal/harness"
	"gpusched/internal/workloads"
)

func TestResolveCacheDir(t *testing.T) {
	cases := []struct {
		cache, out, want string
	}{
		{"auto", "results", filepath.Join("results", ".simcache")},
		{"auto", "", ""},
		{"off", "results", ""},
		{"", "results", ""},
		{"/tmp/explicit", "", "/tmp/explicit"},
	}
	for _, c := range cases {
		if got := resolveCacheDir(c.cache, c.out); got != c.want {
			t.Errorf("resolveCacheDir(%q, %q) = %q, want %q", c.cache, c.out, got, c.want)
		}
	}
}

func TestRunList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, stderr %q", code, errb.String())
	}
	for _, want := range []string{"table1", "fig5", "fig13"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "nope"},
		{"-exp", "no-such-experiment"},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr %q)", args, code, errb.String())
		}
	}
}

// TestRunOneExperimentWritesCSV runs the cheapest experiment end to end and
// checks its outputs: the rendered table on stdout, its wall time on stderr
// only (stdout is what make check-results compares), and the CSV file.
func TestRunOneExperimentWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var out, errb strings.Builder
	code := run([]string{"-exp", "table1", "-scale", "tiny", "-out", dir}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "table1") {
		t.Errorf("stdout missing rendered table:\n%s", out.String())
	}
	if strings.Contains(out.String(), "(table1 in ") || !strings.Contains(errb.String(), "(table1 in ") {
		t.Errorf("wall time not on stderr alone:\nstdout %q\nstderr %q", out.String(), errb.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "parameter,value") {
		t.Errorf("CSV missing header: %q", string(data))
	}
}

// TestRunSurfacesExperimentErrors: a failing experiment does not stop the
// ones after it, and ends the run with exit code 1 and a summary naming it.
func TestRunSurfacesExperimentErrors(t *testing.T) {
	table1, _ := harness.ByID("table1")
	broken := harness.Experiment{ID: "broken", Run: func(*harness.Harness) (*harness.Table, error) {
		return nil, errors.New("no such machine")
	}}
	var out, errb strings.Builder
	h := harness.New(harness.Options{Scale: workloads.ScaleTest})
	code := runExperiments(h, []harness.Experiment{broken, table1}, "", &out, &errb)
	if code != 1 {
		t.Fatalf("run with a failing experiment = %d, want 1 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "1 of 2 experiments failed") || !strings.Contains(errb.String(), "broken: no such machine") {
		t.Errorf("stderr missing failure summary: %q", errb.String())
	}
	if !strings.Contains(out.String(), "table1") {
		t.Errorf("the experiment after the failure did not run:\n%s", out.String())
	}
}

// TestRunRejectsBadMachine: a machine the flags select but the simulator
// cannot build is reported once, in one line, before any experiment runs,
// and exits 2 like any other bad flag.
func TestRunRejectsBadMachine(t *testing.T) {
	for _, cores := range []string{"300", "-1"} {
		var out, errb strings.Builder
		code := run([]string{"-exp", "fig9", "-scale", "tiny", "-out", "", "-cores", cores}, &out, &errb)
		if code != 2 {
			t.Errorf("-cores %s: exit %d, want 2 (stderr %q)", cores, code, errb.String())
		}
		if lines := strings.Count(errb.String(), "\n"); lines != 1 || !strings.Contains(errb.String(), "-cores "+cores) {
			t.Errorf("-cores %s: stderr is %d lines, want one naming the flag: %q", cores, lines, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("-cores %s: an experiment ran: %q", cores, out.String())
		}
	}
}

package main

import (
	"strings"
	"testing"

	"gpusched"
)

// TestParseSched pins the scheduler spellings the CLI accepts — the parser
// now lives in the public API (backed by internal/sim's registry), so this
// is a contract test that the flag surface did not drift.
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
		s, err := gpusched.ParseScheduler(c.in)
		if err != nil {
			t.Errorf("ParseScheduler(%q): %v", c.in, err)
			continue
		}
		if s.Name() != c.name {
			t.Errorf("ParseScheduler(%q).Name() = %q, want %q", c.in, s.Name(), c.name)
		}
	}
	for _, bad := range []string{"", "nope", "static", "static:x", "bcs:y"} {
		if _, err := gpusched.ParseScheduler(bad); err == nil {
			t.Errorf("ParseScheduler(%q) accepted", bad)
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
	for _, want := range []string{"engine cycles", "fast-forwarded", "dispatcher ticks", "skipped", "served by a stall certificate"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q in:\n%s", want, out.String())
		}
	}
}

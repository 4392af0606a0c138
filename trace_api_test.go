package gpusched_test

import (
	"strings"
	"testing"

	"gpusched"
)

func TestRunTraced(t *testing.T) {
	w, _ := gpusched.WorkloadByName("stencil")
	res, tl, err := gpusched.RunTraced(tinyConfig(), gpusched.Baseline(), 512, w.Kernel(gpusched.SizeTiny))
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut || res.Cycles == 0 {
		t.Fatalf("bad result %+v", res)
	}
	if len(tl.Samples) == 0 {
		t.Fatal("empty timeline")
	}
	if tl.PeakIPC() <= 0 {
		t.Fatal("timeline recorded no work")
	}
	var sb strings.Builder
	if err := tl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "cycle,ipc") {
		t.Fatal("CSV header missing")
	}
}

func TestRunTracedDefaultEpoch(t *testing.T) {
	w, _ := gpusched.WorkloadByName("vadd")
	_, tl, err := gpusched.RunTraced(tinyConfig(), gpusched.Baseline(), 0, w.Kernel(gpusched.SizeTiny))
	if err != nil {
		t.Fatal(err)
	}
	if tl.Epoch != 1024 {
		t.Fatalf("default epoch = %d, want 1024", tl.Epoch)
	}
}

func TestDynCTAPublic(t *testing.T) {
	w, _ := gpusched.WorkloadByName("spmv")
	res, err := gpusched.Run(tinyConfig(), gpusched.DynCTA(), w.Kernel(gpusched.SizeTiny))
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatal("timed out")
	}
	if res.CTALimits == nil {
		t.Fatal("DynCTA exposed no limits")
	}
	if gpusched.DynCTA().Name() != "dyncta" {
		t.Fatal("wrong name")
	}
}

func TestTwoLevelPolicyPublic(t *testing.T) {
	w, _ := gpusched.WorkloadByName("vadd")
	cfg := tinyConfig()
	cfg.Core.WarpPolicy = gpusched.WarpTwoLevel
	if cfg.Core.WarpPolicy.String() != "two-level" {
		t.Fatalf("policy string %q", cfg.Core.WarpPolicy.String())
	}
	res, err := gpusched.Run(cfg, gpusched.Baseline(), w.Kernel(gpusched.SizeTiny))
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut || res.IPC <= 0 {
		t.Fatalf("two-level run degenerate: %+v", res)
	}
	// Same work as GTO.
	cfg.Core.WarpPolicy = gpusched.WarpGTO
	gto, err := gpusched.Run(cfg, gpusched.Baseline(), w.Kernel(gpusched.SizeTiny))
	if err != nil {
		t.Fatal(err)
	}
	if res.InstrIssued != gto.InstrIssued {
		t.Fatalf("two-level issued %d, GTO %d", res.InstrIssued, gto.InstrIssued)
	}
}

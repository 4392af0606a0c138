package trace

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"gpusched/internal/core"
	"gpusched/internal/gpu"
	"gpusched/internal/kernel"
	"gpusched/internal/workloads"
)

func runTraced(t *testing.T, name string, d core.Dispatcher, epoch uint64) (*Timeline, gpu.Result) {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	cfg := gpu.DefaultConfig()
	cfg.NumCores = 4
	g, err := gpu.New(cfg, d, w.Build(workloads.ScaleTest))
	if err != nil {
		t.Fatal(err)
	}
	tl := Attach(g, epoch)
	r := g.Run()
	if r.TimedOut {
		t.Fatal("timed out")
	}
	return tl, r
}

func TestTimelineSamples(t *testing.T) {
	tl, res := runTraced(t, "stencil", core.NewRoundRobin(), 512)
	if len(tl.Samples) < 2 {
		t.Fatalf("only %d samples for a %d-cycle run", len(tl.Samples), res.Cycles)
	}
	for i, s := range tl.Samples {
		if i > 0 && s.Cycle <= tl.Samples[i-1].Cycle {
			t.Fatal("samples out of order")
		}
		if s.IPC < 0 || s.L1MissRate < 0 || s.L1MissRate > 1 {
			t.Fatalf("degenerate sample %+v", s)
		}
		if s.ResidentCTAs < 0 || s.ActiveCores > 4 {
			t.Fatalf("impossible occupancy %+v", s)
		}
	}
	// The run did work, so some epoch must show issue activity.
	if tl.PeakIPC() <= 0 {
		t.Fatal("no epoch recorded nonzero IPC")
	}
	if tl.MeanResident() <= 0 {
		t.Fatal("no resident CTAs observed")
	}
}

func TestTimelineEpochIPCConsistentWithTotal(t *testing.T) {
	tl, res := runTraced(t, "vadd", core.NewRoundRobin(), 256)
	// Sum of epoch instruction counts can't exceed the total issued.
	var sum float64
	for _, s := range tl.Samples {
		sum += s.IPC * float64(tl.Epoch)
	}
	if sum > float64(res.InstrIssued)*1.01 {
		t.Fatalf("epoch instruction mass %f exceeds total %d", sum, res.InstrIssued)
	}
	if sum < float64(res.InstrIssued)*0.5 {
		t.Fatalf("epoch sampling lost most instructions: %f of %d (sampling broken?)", sum, res.InstrIssued)
	}
}

func TestTimelineShowsThrottleDrop(t *testing.T) {
	// Under a static limit of 1, mean occupancy must sit well below the
	// baseline's.
	base, _ := runTraced(t, "spmv", core.NewRoundRobin(), 512)
	lim, _ := runTraced(t, "spmv", core.NewLimited(1), 512)
	if lim.MeanResident() >= base.MeanResident() {
		t.Fatalf("throttled occupancy %.1f not below baseline %.1f",
			lim.MeanResident(), base.MeanResident())
	}
}

// TestTracedRunMatchesReference pins the calendar's epoch bound: the
// sampling hook runs at the top of a step, so every epoch cycle must be
// stepped on rather than jumped over. An epoch of 100 is deliberately not a
// multiple of the crossbar latency, so epoch cycles fall between the memory
// events the calendar steps to. Stencil and a DRAM-bound pointer chase, traced on RunContext
// and on RunReference, must give equal timelines and results.
func TestTracedRunMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec func() *kernel.Spec
	}{
		{"stencil", func() *kernel.Spec { w, _ := workloads.ByName("stencil"); return w.Build(workloads.ScaleTest) }},
		{"chase", func() *kernel.Spec { return workloads.ChaseSpec(4, 1, 64) }},
	} {
		run := func(loop func(*gpu.GPU, context.Context) (gpu.Result, error)) (*Timeline, gpu.Result) {
			cfg := gpu.DefaultConfig()
			cfg.NumCores = 4
			g, err := gpu.New(cfg, core.NewRoundRobin(), tc.spec())
			if err != nil {
				t.Fatal(err)
			}
			tl := Attach(g, 100)
			r, _ := loop(g, context.Background())
			return tl, r
		}
		tl, r := run((*gpu.GPU).RunContext)
		refTL, ref := run((*gpu.GPU).RunReference)
		if !reflect.DeepEqual(r, ref) {
			t.Errorf("%s: traced result diverged from the reference:\n%+v\nvs\n%+v", tc.name, r, ref)
		}
		if !reflect.DeepEqual(tl, refTL) {
			t.Errorf("%s: timeline diverged from the reference: %d vs %d samples", tc.name, len(tl.Samples), len(refTL.Samples))
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tl := &Timeline{Epoch: 100, Samples: []Sample{
		{Cycle: 0, IPC: 1.5, ResidentCTAs: 10, ActiveCores: 4, L1MissRate: 0.25, DRAMReads: 7, DRAMRowHitRate: 0.5},
	}}
	var sb strings.Builder
	if err := tl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "cycle,ipc,") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "0,1.5000,10,4,0.2500,7,0.5000") {
		t.Fatalf("bad row: %q", out)
	}
}

func TestEmptyTimelineHelpers(t *testing.T) {
	tl := &Timeline{}
	if tl.PeakIPC() != 0 || tl.MeanResident() != 0 {
		t.Fatal("empty timeline helpers nonzero")
	}
}

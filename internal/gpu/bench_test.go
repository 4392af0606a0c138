package gpu

import (
	"testing"

	"gpusched/internal/core"
	"gpusched/internal/kernel"
	"gpusched/internal/workloads"
)

// benchSpecs builds the benchmark launch fresh per run (programs are
// stateful cursors and a GPU is single-shot).
func benchSpec(b *testing.B, stallHeavy bool) *kernel.Spec {
	b.Helper()
	if stallHeavy {
		// A single dependent-load warp: between load returns the whole
		// machine is provably idle — the fast-forward's designed case, a
		// latency-bound kernel that cannot fill the machine.
		return workloads.ChaseSpec(1, 1, 1024)
	}
	w, ok := workloads.ByName("stencil")
	if !ok {
		b.Fatal("stencil workload missing")
	}
	return w.Build(workloads.ScaleTest)
}

func benchLoop(b *testing.B, stallHeavy bool, loop loop) {
	cfg := DefaultConfig()
	cfg.NumCores = 4
	b.ReportAllocs()
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		spec := benchSpec(b, stallHeavy)
		g, err := New(cfg, core.NewRoundRobin(), spec)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		r := runToEnd(g, loop)
		if r.TimedOut {
			b.Fatal("benchmark kernel timed out")
		}
		cycles += r.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkStallHeavy measures the all-warps-memory-blocked case the
// event-horizon fast-forward targets; the reference variant pins the
// before/after ratio in one `go test -bench StallHeavy` run.
func BenchmarkStallHeavy(b *testing.B) {
	b.Run("fastforward", func(b *testing.B) { benchLoop(b, true, (*GPU).RunContext) })
	b.Run("reference", func(b *testing.B) { benchLoop(b, true, (*GPU).RunReference) })
}

// BenchmarkStencil measures a moderately memory-bound stencil — busier than
// the chase kernel, so the fast-forward win is smaller but must still hold.
func BenchmarkStencil(b *testing.B) {
	b.Run("fastforward", func(b *testing.B) { benchLoop(b, false, (*GPU).RunContext) })
	b.Run("reference", func(b *testing.B) { benchLoop(b, false, (*GPU).RunReference) })
}

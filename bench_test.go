package gpusched_test

// One benchmark per reproduced table/figure (BenchmarkTable*, BenchmarkFig*)
// plus microbenchmarks of the simulator's hot paths. The figure benchmarks
// run the same experiment code as cmd/paperbench at the "small" scale and
// report the experiment's headline number as a custom metric; run
// cmd/paperbench for the full-scale paper numbers.
//
//	go test -bench=. -benchmem
//	go test -bench=Fig5 -benchtime=1x

import (
	"io"
	"strconv"
	"sync"
	"testing"

	"gpusched"
	"gpusched/internal/gpu"
	"gpusched/internal/harness"
	"gpusched/internal/sim"
	"gpusched/internal/workloads"
)

// sharedHarness memoizes simulation runs across benchmarks so the suite is
// dominated by distinct experiments, not repeats.
var (
	harnessOnce sync.Once
	hshared     *harness.Harness
)

func benchHarness() *harness.Harness {
	harnessOnce.Do(func() {
		hshared = harness.New(harness.Options{Scale: workloads.ScaleSmall})
	})
	return hshared
}

// geomeanRow extracts the last row's numeric cell (the geomean the figure
// reports) when present.
func reportLastRowMetric(b *testing.B, t *harness.Table, col int, name string) {
	b.Helper()
	if len(t.Rows) == 0 {
		return
	}
	last := t.Rows[len(t.Rows)-1]
	if col >= len(last) {
		return
	}
	if v, err := strconv.ParseFloat(last[col], 64); err == nil {
		b.ReportMetric(v, name)
	}
}

func runExperiment(b *testing.B, id string, metricCol int, metricName string) {
	b.Helper()
	e, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var table *harness.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = e.Run(benchHarness())
		if err != nil {
			b.Fatal(err)
		}
	}
	table.Render(io.Discard)
	if metricCol >= 0 {
		reportLastRowMetric(b, table, metricCol, metricName)
	}
}

func BenchmarkTable1Config(b *testing.B)          { runExperiment(b, "table1", -1, "") }
func BenchmarkTable2Characteristics(b *testing.B) { runExperiment(b, "table2", -1, "") }
func BenchmarkFig3CTASweep(b *testing.B)          { runExperiment(b, "fig3", -1, "") }
func BenchmarkFig4IssueShare(b *testing.B)        { runExperiment(b, "fig4", -1, "") }
func BenchmarkFig5LCS(b *testing.B)               { runExperiment(b, "fig5", 2, "geomean-speedup") }
func BenchmarkFig6LCSMemory(b *testing.B)         { runExperiment(b, "fig6", -1, "") }
func BenchmarkFig7LCSChoice(b *testing.B)         { runExperiment(b, "fig7", -1, "") }
func BenchmarkFig8BCS(b *testing.B)               { runExperiment(b, "fig8", 1, "geomean-speedup") }
func BenchmarkFig9BAWS(b *testing.B)              { runExperiment(b, "fig9", 2, "geomean-speedup") }
func BenchmarkFig10MCKE(b *testing.B)             { runExperiment(b, "fig10", 4, "geomean-throughput") }
func BenchmarkFig11Sensitivity(b *testing.B)      { runExperiment(b, "fig11", -1, "") }
func BenchmarkFig12WarpSched(b *testing.B)        { runExperiment(b, "fig12", 3, "geomean-speedup") }
func BenchmarkFig13PriorWork(b *testing.B)        { runExperiment(b, "fig13", 3, "geomean-speedup") }
func BenchmarkFig14Preemption(b *testing.B)       { runExperiment(b, "fig14", -1, "") }

// BenchmarkSimulatorThroughput measures raw simulation speed — simulated
// cycles per wall second — on the two shapes that bracket the simulator's
// behaviour: a stall-heavy dependent-load chase where every resident warp
// spends most cycles memory-blocked (the event-horizon fast-forward's
// target), and a mid-weight stencil that keeps the issue logic busy.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.Run("stall-heavy", func(b *testing.B) {
		cfg := gpu.DefaultConfig()
		var cycles uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g, err := gpu.New(cfg, sim.Baseline().NewDispatcher(), workloads.ChaseSpec(1, 1, 1024))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			cycles += g.Run().Cycles
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
	})
	b.Run("stencil", func(b *testing.B) {
		w, _ := gpusched.WorkloadByName("stencil")
		cfg := gpusched.DefaultConfig()
		var cycles uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := gpusched.MustRun(cfg, gpusched.Baseline(), w.Kernel(gpusched.SizeTiny))
			cycles += res.Cycles
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
	})
}

// BenchmarkSchedulerOverheads compares the dispatch policies' wall cost on
// identical work (they simulate different schedules, so this is a
// same-order sanity check, not a microbenchmark).
func BenchmarkSchedulerOverheads(b *testing.B) {
	w, _ := gpusched.WorkloadByName("vadd")
	cfg := gpusched.DefaultConfig()
	for _, sched := range []gpusched.Scheduler{
		gpusched.Baseline(), gpusched.LCS(), gpusched.AdaptiveLCS(), gpusched.BCS(2),
	} {
		b.Run(sched.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gpusched.MustRun(cfg, sched, w.Kernel(gpusched.SizeTiny))
			}
		})
	}
}

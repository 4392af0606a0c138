// Command gpusim runs one workload under one scheduling configuration and
// prints the full statistics record — the single-run driver for exploring
// the simulator.
//
//	gpusim -workload spmv -sched lcs
//	gpusim -workload stencil -sched bcs -warp baws -size full
//	gpusim -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"gpusched/internal/mem"
	"gpusched/internal/sim"
	"gpusched/internal/sm"
	"gpusched/internal/trace"
	"gpusched/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpusim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "vadd", "workload name (see -list)")
		schedStr = fs.String("sched", "baseline", "CTA scheduler: "+sim.SchedFlagHelp)
		warpStr  = fs.String("warp", "gto", "warp scheduler: "+sim.WarpFlagHelp)
		sizeStr  = fs.String("size", "small", "problem size: "+sim.ScaleFlagHelp)
		cores    = fs.Int("cores", 15, "SM count")
		engStats = fs.Bool("engine-stats", false, "also print how the cycle loop executed the run: cycles that ticked the dispatcher or an SM (ticked), only L2 partitions (batched) or nothing (fast-forwarded); dispatcher polls made and skipped; warp-scheduler walks vs certificate reads, and the warps the walks evaluated; L2 partition ticks against partition-cycles; SM ticks against SM-cycles")
		list     = fs.Bool("list", false, "list workloads and exit")
		traceOut = fs.String("trace", "", "write a per-epoch timeline CSV to this file")
		epoch    = fs.Uint64("epoch", 1024, "trace sampling period in cycles")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintf(stdout, "%-14s %-8s %-10s %s\n", "name", "class", "inter-CTA", "modeled on")
		for _, w := range workloads.All() {
			loc := ""
			if w.InterCTALocality {
				loc = "yes"
			}
			fmt.Fprintf(stdout, "%-14s %-8s %-10s %s\n", w.Name, w.Class, loc, w.ModeledOn)
		}
		return 0
	}

	w, ok := workloads.ByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q (use -list)\n", *workload)
		return 2
	}
	req := sim.Request{Workloads: []string{w.Name}, Cores: *cores}
	var err error
	if req.Scale, err = sim.ParseScale(*sizeStr); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if req.Warp, err = sim.ParseWarpPolicy(*warpStr); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if req.Sched, err = sim.ParseSched(*schedStr); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *engStats && *traceOut != "" {
		fmt.Fprintln(stderr, "-engine-stats describes an untraced run (the trace hook changes how the loop executes); drop -trace")
		return 2
	}

	m, err := req.Build(nil)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var tl *trace.Timeline
	if *traceOut != "" {
		tl = trace.Attach(m.GPU, *epoch)
	}
	// firstDone holds the cycle of each SM's first CTA completion, in the
	// order they happen; the observer only reads, so the run is the same.
	var firstDone []uint64
	seen := make([]bool, m.NumCores())
	m.SetObserver(func(coreID int, _ *sm.CTA, now uint64) {
		if !seen[coreID] {
			seen[coreID] = true
			firstDone = append(firstDone, now)
		}
	})
	out := m.Outcome(m.Run())
	res := out.Result
	if tl != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := tl.WriteCSV(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		f.Close()
		fmt.Fprintf(stdout, "timeline        %d samples -> %s (peak IPC %.2f, mean resident CTAs %.1f)\n",
			len(tl.Samples), *traceOut, tl.PeakIPC(), tl.MeanResident())
	}

	k := w.Build(req.Scale)
	fmt.Fprintf(stdout, "workload        %s (%s), %d CTAs x %d threads\n", w.Name, w.ModeledOn, k.NumCTAs(), k.ThreadsPerCTA())
	fmt.Fprintf(stdout, "scheduler       %s CTA dispatch, %s warps, %d SMs\n", req.Sched.Name(), *warpStr, m.NumCores())
	fmt.Fprintf(stdout, "cycles          %d (timed out: %v)\n", res.Cycles, res.TimedOut)
	fmt.Fprintf(stdout, "instructions    %d warp (%d thread), IPC %.3f\n", res.InstrIssued, res.ThreadInstr, res.IPC)
	fmt.Fprintf(stdout, "L1              %.1f%% hit, %.1f%% merged into in-flight fills\n", res.L1.HitRate()*100, res.L1.MergeRate()*100)
	fmt.Fprintf(stdout, "L2              %.1f%% hit\n", res.L2.HitRate()*100)
	fmt.Fprintf(stdout, "DRAM            %d reads, %d writes, %.1f%% row hits, %.0f-cycle avg queue\n",
		res.DRAM.Reads, res.DRAM.Writes, res.DRAM.RowHitRate()*100, res.DRAM.AvgQueueLatency())
	fmt.Fprintf(stdout, "load latency    %.0f cycles avg\n", res.AvgMemLatency)
	done := make([]uint64, m.NumCores())
	for i := range done {
		done[i] = m.CoreCounters(i).CTAsCompleted
	}
	slices.Sort(done) // the median of an even SM count is the lower middle
	fmt.Fprintf(stdout, "balance         %d / %d / %d CTAs per SM (min / median / max)",
		done[0], done[(len(done)-1)/2], done[len(done)-1])
	if len(firstDone) > 0 {
		fmt.Fprintf(stdout, ", first completion at cycle %d / %d (min / max)",
			firstDone[0], firstDone[len(firstDone)-1])
	}
	fmt.Fprintln(stdout)
	if out.Limits != nil {
		fmt.Fprintf(stdout, "LCS limits      %v\n", out.Limits)
	}
	if *engStats {
		eng := m.EngineStats()
		fmt.Fprintf(stdout, "engine cycles   %d ticked, %d fast-forwarded, %d batched\n",
			eng.CyclesTicked, eng.CyclesFastForwarded, eng.CyclesBatched)
		fmt.Fprintf(stdout, "engine polls    %d dispatcher ticks, %d skipped\n",
			eng.DispatcherTicks, eng.DispatcherSkips)
		fmt.Fprintf(stdout, "engine issue    %d scheduler-cycles walked the warps, %d served by a stall certificate\n",
			eng.IssueWalks, eng.IssueServed)
		fmt.Fprintf(stdout, "engine evals    %d warps evaluated for readiness by the walks\n", eng.IssueEvals)
		fmt.Fprintf(stdout, "engine memory   %d L2 partition ticks of %d partition-cycles\n",
			eng.PartitionTicks, res.Cycles*uint64(mem.DefaultConfig().Partitions))
		fmt.Fprintf(stdout, "engine sm       %d SM ticks of %d SM-cycles\n",
			eng.SMTicks, res.Cycles*uint64(m.NumCores()))
	}
	return 0
}

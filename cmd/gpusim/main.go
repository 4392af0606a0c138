// Command gpusim runs one workload under one scheduling configuration and
// prints the full statistics record — the single-run driver for exploring
// the simulator.
//
//	gpusim -workload spmv -sched lcs
//	gpusim -workload stencil -sched bcs -warp baws -size full
//	gpusim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"gpusched"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpusim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "vadd", "workload name (see -list)")
		schedStr = fs.String("sched", "baseline", "CTA scheduler: "+gpusched.SchedulerFlagHelp)
		warpStr  = fs.String("warp", "gto", "warp scheduler: lrr | gto | baws")
		sizeStr  = fs.String("size", "small", "problem size: tiny | small | full")
		cores    = fs.Int("cores", 15, "SM count")
		window   = fs.Uint64("batch-window", 0, "max memory-system cycles batched into one call when every SM provably sleeps (0 = built-in default, 1 = off; never changes results)")
		engStats = fs.Bool("engine-stats", false, "also print how the cycle loop executed the run: cycles ticked / fast-forwarded / batched, dispatcher polls made and skipped, warp-scheduler walks vs certificate reads")
		list     = fs.Bool("list", false, "list workloads and exit")
		traceOut = fs.String("trace", "", "write a per-epoch timeline CSV to this file")
		epoch    = fs.Uint64("epoch", 1024, "trace sampling period in cycles")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintf(stdout, "%-14s %-8s %-10s %s\n", "name", "class", "inter-CTA", "modeled on")
		for _, w := range gpusched.Workloads() {
			loc := ""
			if w.InterCTALocality {
				loc = "yes"
			}
			fmt.Fprintf(stdout, "%-14s %-8s %-10s %s\n", w.Name, w.Class, loc, w.ModeledOn)
		}
		return 0
	}

	w, ok := gpusched.WorkloadByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q (use -list)\n", *workload)
		return 2
	}
	size, err := gpusched.ParseSize(*sizeStr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg := gpusched.DefaultConfig()
	cfg.Cores = *cores
	cfg.BatchWindow = *window
	cfg.WarpPolicy, err = gpusched.ParseWarpPolicy(*warpStr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	sched, err := gpusched.ParseScheduler(*schedStr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *engStats && *traceOut != "" {
		fmt.Fprintln(stderr, "-engine-stats describes an untraced run (the trace hook changes how the loop executes); drop -trace")
		return 2
	}

	var res gpusched.Result
	var eng gpusched.EngineStats
	if *traceOut != "" {
		var tl *gpusched.Timeline
		res, tl, err = gpusched.RunTraced(cfg, sched, *epoch, w.Kernel(size))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		f, ferr := os.Create(*traceOut)
		if ferr != nil {
			fmt.Fprintln(stderr, ferr)
			return 1
		}
		if err := tl.WriteCSV(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		f.Close()
		fmt.Fprintf(stdout, "timeline        %d samples -> %s (peak IPC %.2f, mean resident CTAs %.1f)\n",
			len(tl.Samples), *traceOut, tl.PeakIPC(), tl.MeanResident())
	} else {
		res, eng, err = gpusched.RunEngineStats(context.Background(), cfg, sched, w.Kernel(size))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	k := w.Kernel(size)
	fmt.Fprintf(stdout, "workload        %s (%s), %d CTAs x %d threads\n", w.Name, w.ModeledOn, k.CTAs(), k.ThreadsPerCTA())
	fmt.Fprintf(stdout, "scheduler       %s CTA dispatch, %s warps, %d SMs\n", sched.Name(), *warpStr, *cores)
	fmt.Fprintf(stdout, "cycles          %d (timed out: %v)\n", res.Cycles, res.TimedOut)
	fmt.Fprintf(stdout, "instructions    %d warp (%d thread), IPC %.3f\n", res.InstrIssued, res.ThreadInstr, res.IPC)
	fmt.Fprintf(stdout, "L1              %.1f%% hit, %.1f%% merged into in-flight fills\n", res.L1HitRate*100, res.L1MergeRate*100)
	fmt.Fprintf(stdout, "L2              %.1f%% hit\n", res.L2HitRate*100)
	fmt.Fprintf(stdout, "DRAM            %d reads, %d writes, %.1f%% row hits, %.0f-cycle avg queue\n",
		res.DRAMReads, res.DRAMWrites, res.DRAMRowHitRate*100, res.AvgDRAMQueue)
	fmt.Fprintf(stdout, "load latency    %.0f cycles avg\n", res.AvgMemLatency)
	if res.CTALimits != nil {
		fmt.Fprintf(stdout, "LCS limits      %v\n", res.CTALimits)
	}
	if *engStats {
		fmt.Fprintf(stdout, "engine cycles   %d ticked, %d fast-forwarded, %d batched\n",
			eng.CyclesTicked, eng.CyclesFastForwarded, eng.CyclesBatched)
		fmt.Fprintf(stdout, "engine polls    %d dispatcher ticks, %d skipped\n",
			eng.DispatcherTicks, eng.DispatcherSkips)
		fmt.Fprintf(stdout, "engine issue    %d scheduler-cycles walked the warps, %d served by a stall certificate\n",
			eng.IssueWalks, eng.IssueServed)
	}
	return 0
}

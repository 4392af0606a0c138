// Command ctasweep sweeps the per-SM CTA limit for one or more workloads
// and prints the IPC curve — the quickest way to see the paper's motivating
// observation that maximal occupancy is not optimal.
//
//	ctasweep spmv conv2d
//	ctasweep -size full -warp gto stencil
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gpusched/internal/sim"
	"gpusched/internal/sm"
	"gpusched/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ctasweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sizeStr  = fs.String("size", "small", "problem size (an unknown name prints the choices)")
		cores    = fs.Int("cores", 15, "SM count")
		schedStr = fs.String("sched", "", "also run each workload under this scheduler and report it against the sweep ("+sim.SchedFlagHelp+")")
		base     sim.Request
	)
	fs.TextVar(&base.Warp, "warp", sm.PolicyGTO, "warp scheduler (an unknown name prints the choices)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := fs.Args()
	if len(names) == 0 {
		fmt.Fprintln(stderr, "usage: ctasweep [flags] workload...")
		return 2
	}

	base.Cores = *cores
	var err error
	if base.Scale, err = workloads.ParseScale(*sizeStr); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var overlay *sim.SchedSpec
	if *schedStr != "" {
		s, err := sim.ParseSched(*schedStr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		overlay = &s
	}

	svc := sim.NewService(sim.Options{})
	simulate := func(name string, sched sim.SchedSpec) (sim.Outcome, error) {
		req := base
		req.Workloads, req.Sched = []string{name}, sched
		return svc.Run(context.Background(), req)
	}
	for _, name := range names {
		w, ok := workloads.ByName(name)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", name)
			return 2
		}
		fmt.Fprintf(stdout, "%s (%s)\n", w.Name, w.ModeledOn)
		fmt.Fprintf(stdout, "  %-6s %-10s %-8s %-8s %-9s %s\n", "limit", "cycles", "IPC", "L1 hit", "DRAM q", "bar")
		type point struct {
			lim    int
			cycles uint64
			ipc    float64
		}
		var best, last point
		// The sweep stops at the kernel's occupancy limit: a static limit at
		// or above it cannot bind, so it would repeat that point's run.
		maxRes, binding := sm.DefaultConfig().Limits.MaxResident(w.Build(base.Scale))
		for lim := 1; lim <= maxRes; lim++ {
			out, err := simulate(name, sim.Static(lim))
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			res := out.Result
			last = point{lim, res.Cycles, res.IPC}
			if best.cycles == 0 || last.cycles < best.cycles {
				best = last
			}
			bar := strings.Repeat("#", int(res.IPC*4+0.5))
			fmt.Fprintf(stdout, "  %-6d %-10d %-8.2f %-8s %-9.0f %s\n",
				lim, res.Cycles, res.IPC,
				fmt.Sprintf("%.1f%%", res.L1.HitRate()*100), res.DRAM.AvgQueueLatency(), bar)
		}
		fmt.Fprintf(stdout, "  (occupancy limit %d CTAs/SM, bound by %s)\n", maxRes, binding)
		fmt.Fprintf(stdout, "  best: %d CTAs/SM at IPC %.2f (%.1f%% over max occupancy)\n",
			best.lim, best.ipc, (best.ipc/last.ipc-1)*100)
		if overlay != nil {
			out, err := simulate(name, *overlay)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "  %s: IPC %.2f in %d cycles (%.1f%% of sweep best)\n",
				overlay.Name(), out.Result.IPC, out.Result.Cycles, out.Result.IPC/best.ipc*100)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

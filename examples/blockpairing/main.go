// Block CTA scheduling on a stencil: consecutive CTAs read overlapping rows
// of the same image, so dispatching them as pairs to one SM (BCS) — and
// advancing the pair in lockstep with the block-aware warp scheduler
// (BAWS) — turns the overlap into same-core L1/MSHR hits and cuts DRAM
// traffic.
package main

import (
	"fmt"
	"log"

	"gpusched"
)

func run(cfg gpusched.Config, sched gpusched.Scheduler, k gpusched.Kernel) gpusched.Result {
	res, err := gpusched.Run(cfg, sched, k)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	w, ok := gpusched.WorkloadByName("stencil")
	if !ok {
		log.Fatal("stencil missing from suite")
	}
	k := w.Kernel(gpusched.SizeSmall)

	gto := gpusched.DefaultConfig() // GTO warp scheduler
	baws := gto
	baws.Core.WarpPolicy = gpusched.WarpBAWS

	base := run(gto, gpusched.Baseline(), k)
	gang := run(gto, gpusched.BCS(2), k)  // pairs co-located, GTO serializes them
	lock := run(baws, gpusched.BCS(2), k) // pairs co-located AND in lockstep
	wide := run(baws, gpusched.BCS(4), k) // wider gangs

	show := func(name string, r gpusched.Result) {
		fmt.Printf("%-22s %8d cycles  %.3fx  L1 hit+merge %5.1f%%  DRAM reads %d\n",
			name, r.Cycles, r.Speedup(base), (r.L1HitRate+r.L1MergeRate)*100, r.DRAMReads)
	}
	fmt.Printf("stencil: CTA i reads rows i..i+2; CTAs i and i+1 share 2 of 3 rows\n\n")
	show("baseline (RR+GTO)", base)
	show("BCS pairs + GTO", gang)
	show("BCS pairs + BAWS", lock)
	show("BCS gangs of 4 + BAWS", wide)
	fmt.Println("\nThe gang alone helps (co-location dedups fetches in one L1);")
	fmt.Println("BAWS adds the lockstep that makes the shared lines still-resident.")
}

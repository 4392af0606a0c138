// Mixed concurrent kernel execution: a memory-bound kernel that LCS says
// cannot use full occupancy shares every SM with a compute-bound kernel
// that fills the leftover thread, register, and CTA-slot resources.
// Compared against running the kernels back to back (sequential) and
// against splitting the SMs between them (spatial CKE).
package main

import (
	"fmt"
	"log"
	"sort"

	"gpusched"
)

func main() {
	memK, ok := gpusched.WorkloadByName("spmv")
	if !ok {
		log.Fatal("spmv missing")
	}
	cmpK, ok := gpusched.WorkloadByName("blackscholes")
	if !ok {
		log.Fatal("blackscholes missing")
	}
	cfg := gpusched.DefaultConfig()
	a := memK.Kernel(gpusched.SizeSmall)
	b := cmpK.Kernel(gpusched.SizeSmall)

	// Phase 1: profile the memory-bound kernel alone; AdaptiveLCS decides
	// how many of its CTAs per SM are actually useful.
	profile, err := gpusched.Run(cfg, gpusched.AdaptiveLCS(), a)
	if err != nil {
		log.Fatal(err)
	}
	nOpt := lowQuartile(profile.CTALimits)
	fmt.Printf("profile: %s wants only %d CTAs/SM (per-core decisions %v)\n\n",
		a.Name(), nOpt, profile.CTALimits)

	// Phase 2: run the pair under the three execution modes.
	seq, err := gpusched.Run(cfg, gpusched.Sequential(), a, b)
	if err != nil {
		log.Fatal(err)
	}
	spa, err := gpusched.Run(cfg, gpusched.SpatialCKE(), a, b)
	if err != nil {
		log.Fatal(err)
	}
	mix, err := gpusched.Run(cfg, gpusched.MixedCKE(nOpt), a, b)
	if err != nil {
		log.Fatal(err)
	}

	show := func(name string, r gpusched.Result) {
		fmt.Printf("%-28s %8d cycles  %.3fx", name, r.Cycles, r.Speedup(seq))
		for _, k := range r.Kernels {
			fmt.Printf("  [%s done @%d]", k.Name, k.DoneCycle)
		}
		fmt.Println()
	}
	fmt.Printf("running %s (%d CTAs) + %s (%d CTAs):\n", a.Name(), a.CTAs(), b.Name(), b.CTAs())
	show("sequential (no CKE)", seq)
	show("spatial CKE (split SMs)", spa)
	show(fmt.Sprintf("mixed CKE (A capped at %d)", nOpt), mix)
}

// lowQuartile returns the 25th-percentile positive limit: a conservative
// consensus of the per-core LCS decisions.
func lowQuartile(limits []int) int {
	var vs []int
	for _, v := range limits {
		if v > 0 {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		return 1
	}
	sort.Ints(vs)
	return vs[len(vs)/4]
}

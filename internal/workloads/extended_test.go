package workloads

import (
	"testing"

	"gpusched/internal/isa"
)

func TestLUDDivergenceShrinks(t *testing.T) {
	w, _ := ByName("lud")
	spec := w.Build(ScaleFull) // needs enough steps for the mask to halve
	instrs := drain(spec, 0, 0, 1_000_000)
	first, last := -1, -1
	for _, wi := range instrs {
		if wi.Op == isa.OpFAlu && wi.Mask != 0 {
			n := wi.ActiveLanes()
			if first == -1 {
				first = n
			}
			last = n
		}
	}
	if first != 32 {
		t.Fatalf("first FALU active lanes = %d, want 32", first)
	}
	if last >= first {
		t.Fatalf("wavefront never contracted: first %d, last %d", first, last)
	}
}

func TestStreamclusterWindowsPrivateAndReused(t *testing.T) {
	w, _ := ByName("streamcluster")
	spec := w.Build(ScaleTest)
	windowLines := func(cta int) (map[uint32]int, int) {
		counts := map[uint32]int{}
		total := 0
		for _, wi := range drain(spec, cta, 0, 1_000_000) {
			if wi.Op == isa.OpLoadGlobal && wi.Addrs[0] >= regionB && wi.Addrs[0] < regionC {
				counts[wi.Addrs[0]/128]++
				total++
			}
		}
		return counts, total
	}
	c0, n0 := windowLines(0)
	c1, _ := windowLines(1)
	if n0 == 0 {
		t.Fatal("no window accesses")
	}
	for line := range c0 {
		if c1[line] != 0 {
			t.Fatalf("CTA windows share line %d", line)
		}
	}
	// Reuse: distinct lines touched must be well below total accesses at
	// full scale (the window is revisited).
	specFull := w.Build(ScaleFull)
	counts := map[uint32]int{}
	total := 0
	for _, wi := range drain(specFull, 0, 0, 1_000_000) {
		if wi.Op == isa.OpLoadGlobal && wi.Addrs[0] >= regionB && wi.Addrs[0] < regionC {
			counts[wi.Addrs[0]/128]++
			total++
		}
	}
	if len(counts) >= total {
		t.Fatalf("no temporal reuse: %d lines for %d accesses", len(counts), total)
	}
}

func TestSRADSharesRowsWithNeighbor(t *testing.T) {
	w, _ := ByName("srad")
	spec := w.Build(ScaleTest)
	lines := func(cta int) map[uint32]bool {
		set := map[uint32]bool{}
		for _, wi := range drain(spec, cta, 0, 1_000_000) {
			if wi.Op == isa.OpLoadGlobal && wi.Addrs[0] < regionB {
				for l := 0; l < isa.WarpSize; l++ {
					set[wi.Addrs[l]/128] = true
				}
			}
		}
		return set
	}
	a, b := lines(0), lines(1)
	shared := 0
	for k := range a {
		if b[k] {
			shared++
		}
	}
	if frac := float64(shared) / float64(len(a)); frac < 0.4 {
		t.Fatalf("srad neighbors share %.0f%% of image lines, want >= 40%%", frac*100)
	}
}

func TestBackpropReductionMasksHalve(t *testing.T) {
	w, _ := ByName("backprop")
	spec := w.Build(ScaleTest)
	var masks []int
	for _, wi := range drain(spec, 0, 0, 1_000_000) {
		if wi.Op == isa.OpStoreShared && wi.Mask != isa.FullMask {
			masks = append(masks, wi.ActiveLanes())
		}
	}
	if len(masks) < 3 {
		t.Fatalf("reduction tree too shallow: %v", masks)
	}
	for i := 1; i < len(masks); i++ {
		if masks[i] >= masks[i-1] {
			t.Fatalf("reduction masks not strictly narrowing: %v", masks)
		}
	}
}

func TestDCT8x8UsesBothSharedPasses(t *testing.T) {
	w, _ := ByName("dct8x8")
	spec := w.Build(ScaleTest)
	conflictFree, conflicted := 0, 0
	for _, wi := range drain(spec, 0, 0, 1_000_000) {
		if wi.Op == isa.OpLoadShared {
			if wi.BankConflict <= 1 {
				conflictFree++
			} else {
				conflicted++
			}
		}
	}
	if conflictFree == 0 || conflicted == 0 {
		t.Fatalf("dct8x8 passes missing: %d conflict-free, %d conflicted", conflictFree, conflicted)
	}
}

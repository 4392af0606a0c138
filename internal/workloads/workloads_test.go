package workloads

import (
	"testing"

	"gpusched/internal/isa"
	"gpusched/internal/kernel"
	"gpusched/internal/sm"
)

// drain returns the instruction stream of warp (cta, warp) of spec, cut
// short once it passes cap instructions.
func drain(spec *kernel.Spec, cta, warp, cap int) []isa.WarpInstr {
	var out []isa.WarpInstr
	var buf isa.WarpInstr
	c := isa.Cursor{CTA: cta, Warp: warp}
	for spec.Program.Next(&c, &buf) {
		out = append(out, buf)
		if len(out) > cap {
			break
		}
	}
	return out
}

// lanes returns all 32 of wi's lane addresses, from its formula or its
// lane array.
func lanes(wi *isa.WarpInstr) (a [isa.WarpSize]uint32) {
	for l := range a {
		a[l] = wi.Addr(l)
	}
	return a
}

func TestCatalogIntegrity(t *testing.T) {
	ws := All()
	if len(ws) != 19 {
		t.Fatalf("catalog has %d workloads, want 19", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if w.Name == "" || w.ModeledOn == "" || w.Class == "" || w.Build == nil {
			t.Errorf("workload %+v incomplete", w.Name)
		}
		if seen[w.Name] {
			t.Errorf("duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
	}
	for i := 1; i < len(ws); i++ {
		if ws[i-1].Name > ws[i].Name {
			t.Errorf("catalog not in name order: %q before %q", ws[i-1].Name, ws[i].Name)
		}
	}
}

func TestByNameAndClass(t *testing.T) {
	w, ok := ByName("vadd")
	if !ok || w.Name != "vadd" {
		t.Fatal("ByName(vadd) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) succeeded")
	}
	members := map[Class]int{}
	for _, w := range All() {
		members[w.Class]++
	}
	for _, c := range []Class{ClassCompute, ClassStream, ClassCache, ClassLocality, ClassIrregular, ClassSync} {
		if members[c] == 0 {
			t.Errorf("class %s has no members", c)
		}
	}
	if len(Names()) != len(All()) {
		t.Error("Names/All length mismatch")
	}
}

func TestAllSpecsValidateAndFit(t *testing.T) {
	limits := sm.DefaultConfig().Limits
	for _, w := range All() {
		for _, s := range []Scale{ScaleTest, ScaleSmall, ScaleFull} {
			spec := w.Build(s)
			if err := spec.Validate(); err != nil {
				t.Errorf("%s scale %d: %v", w.Name, s, err)
				continue
			}
			n, binding := limits.MaxResident(spec)
			if n < 1 {
				t.Errorf("%s scale %d: does not fit an SM (%s)", w.Name, s, binding)
			}
			if n > limits.MaxCTAs {
				t.Errorf("%s: MaxResident %d exceeds slot limit", w.Name, n)
			}
		}
	}
}

func TestProgramsTerminateWithExit(t *testing.T) {
	for _, w := range All() {
		spec := w.Build(ScaleTest)
		for _, warp := range []int{0, spec.WarpsPerCTA() - 1} {
			instrs := drain(spec, 0, warp, 1_000_000)
			if len(instrs) == 0 {
				t.Fatalf("%s warp %d: empty program", w.Name, warp)
			}
			last := instrs[len(instrs)-1]
			if last.Op != isa.OpExit {
				t.Errorf("%s warp %d: last op %v, want EXIT", w.Name, warp, last.Op)
			}
		}
	}
}

func TestProgramsDeterministic(t *testing.T) {
	for _, w := range All() {
		spec := w.Build(ScaleTest)
		a := drain(spec, 1, 1, 1_000_000)
		b := drain(spec, 1, 1, 1_000_000)
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ %d vs %d", w.Name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: instr %d differs", w.Name, i)
			}
		}
	}
}

func TestProgramsDifferAcrossWarps(t *testing.T) {
	// Different warps must not all read the same addresses (that would be
	// a degenerate workload). Compare first memory instruction addresses.
	for _, w := range All() {
		if w.Name == "kmeans" {
			continue // centroid broadcast loads are intentionally shared
		}
		spec := w.Build(ScaleTest)
		a := drain(spec, 0, 0, 1_000_000)
		b := drain(spec, 1, 0, 1_000_000)
		differ := false
		for i := range a {
			if i >= len(b) {
				break
			}
			if a[i].Op == isa.OpLoadGlobal && b[i].Op == isa.OpLoadGlobal && lanes(&a[i]) != lanes(&b[i]) {
				differ = true
				break
			}
		}
		if !differ {
			t.Errorf("%s: CTA 0 and CTA 1 warp streams identical", w.Name)
		}
	}
}

func TestBarrierCountsMatchAcrossWarps(t *testing.T) {
	// Every warp of a CTA must execute the same number of barriers or the
	// CTA deadlocks.
	for _, w := range All() {
		spec := w.Build(ScaleTest)
		want := -1
		for warp := 0; warp < spec.WarpsPerCTA(); warp++ {
			n := 0
			for _, wi := range drain(spec, 0, warp, 1_000_000) {
				if wi.Op == isa.OpBarrier {
					n++
				}
			}
			if want == -1 {
				want = n
			} else if n != want {
				t.Errorf("%s: warp %d has %d barriers, warp 0 has %d", w.Name, warp, n, want)
			}
		}
	}
}

func TestInstructionMixMatchesClass(t *testing.T) {
	memFrac := func(name string) float64 {
		w, ok := ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		spec := w.Build(ScaleSmall)
		instrs := drain(spec, 0, 0, 1_000_000)
		memOps := 0
		for _, wi := range instrs {
			if wi.Op.IsGlobal() {
				memOps++
			}
		}
		return float64(memOps) / float64(len(instrs))
	}
	if f := memFrac("vadd"); f < 0.4 {
		t.Errorf("vadd global-op fraction %.2f, want streaming-heavy", f)
	}
	if f := memFrac("blackscholes"); f > 0.25 {
		t.Errorf("blackscholes global-op fraction %.2f, want compute-heavy", f)
	}
}

func TestSPMVWindowsArePrivate(t *testing.T) {
	w, _ := ByName("spmv")
	spec := w.Build(ScaleTest)
	gatherAddrs := func(cta int) map[uint32]bool {
		set := map[uint32]bool{}
		for _, wi := range drain(spec, cta, 0, 1_000_000) {
			if wi.Op == isa.OpLoadGlobal && wi.Addr(0) >= regionB && wi.Addr(0) < regionC {
				for _, a := range lanes(&wi) {
					set[a/4096] = true // 4KB window granularity
				}
			}
		}
		return set
	}
	w0, w1 := gatherAddrs(0), gatherAddrs(1)
	for k := range w0 {
		if w1[k] {
			t.Fatalf("CTA windows overlap at 4KB page %d", k)
		}
	}
	if len(w0) == 0 || len(w1) == 0 {
		t.Fatal("no gather accesses found")
	}
}

func TestLocalityWorkloadsShareLinesAcrossCTAs(t *testing.T) {
	// Adjacent CTAs of the BCS-target workloads must re-read a substantial
	// fraction of each other's input lines — the property BCS gang dispatch
	// converts into same-core L1/MSHR hits.
	for _, name := range []string{"stencil", "hotspot", "conv2d", "pathfinder"} {
		w, ok := ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		spec := w.Build(ScaleTest)
		loadLines := func(cta, warp int) map[uint32]bool {
			set := map[uint32]bool{}
			for _, wi := range drain(spec, cta, warp, 1_000_000) {
				if wi.Op == isa.OpLoadGlobal {
					for l := 0; l < isa.WarpSize; l++ {
						if wi.Mask&(1<<l) != 0 {
							set[wi.Addr(l)/128] = true
						}
					}
				}
			}
			return set
		}
		a, b := loadLines(0, 0), loadLines(1, 0)
		shared := 0
		for k := range a {
			if b[k] {
				shared++
			}
		}
		if frac := float64(shared) / float64(len(a)); frac < 0.25 {
			t.Errorf("%s: adjacent CTAs share only %.0f%% of load lines", name, frac*100)
		}
	}
}

func TestHash2Hash3Deterministic(t *testing.T) {
	if hash2(3, 4) != hash2(3, 4) || hash3(1, 2, 3) != hash3(1, 2, 3) {
		t.Fatal("hash not deterministic")
	}
	if hash2(3, 4) == hash2(4, 3) {
		t.Error("hash2 symmetric (weak mixing)")
	}
	if hash3(1, 2, 3) == hash3(1, 2, 4) {
		t.Error("hash3 ignores third argument")
	}
}

func TestXs32NonZero(t *testing.T) {
	s := uint32(1)
	for i := 0; i < 10000; i++ {
		s = xs32(s)
		if s == 0 {
			t.Fatal("xorshift collapsed to zero")
		}
	}
}

func TestLoopProgramPhases(t *testing.T) {
	calls := []string{}
	mk := func(tag string) Emit {
		return func(buf *isa.WarpInstr, _ *isa.Cursor) {
			buf.Op = isa.OpIAlu
			buf.Mask = isa.FullMask
			calls = append(calls, tag)
		}
	}
	p := &loopProgram{
		prologue: []Emit{mk("p")},
		body:     []Emit{mk("b1"), mk("b2")},
		epilogue: []Emit{mk("e")},
		iters:    2,
	}
	var buf isa.WarpInstr
	var c isa.Cursor
	n := 0
	for p.Next(&c, &buf) {
		n++
	}
	want := []string{"p", "b1", "b2", "b1", "b2", "e"}
	if len(calls) != len(want) {
		t.Fatalf("calls = %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("calls = %v, want %v", calls, want)
		}
	}
	if n != len(want)+1 { // +1 for EXIT
		t.Fatalf("emitted %d instrs, want %d", n, len(want)+1)
	}
	if p.instrPerWarp() != n {
		t.Fatalf("instrPerWarp = %d, emitted %d", p.instrPerWarp(), n)
	}
}

func TestWorkloadFootprintsStayInAddressSpace(t *testing.T) {
	// All addresses are uint32 by construction; verify region discipline:
	// loads/stores beyond regionD+256MB would indicate arithmetic overflow.
	spec := (&kernel.Spec{}) // silence unused import if regions change
	_ = spec
	for _, w := range All() {
		s := w.Build(ScaleFull)
		for _, wi := range drain(s, s.NumCTAs()-1, s.WarpsPerCTA()-1, 2_000_000) {
			if wi.Op.IsGlobal() {
				for l := 0; l < isa.WarpSize; l++ {
					if wi.Mask&(1<<l) != 0 && wi.Addr(l) >= regionD+(1<<28) {
						t.Fatalf("%s: address %#x outside region map", w.Name, wi.Addr(l))
					}
				}
			}
		}
	}
}

// TestRegistersWithinAllocation: every warp of every workload, at every
// scale, names only registers below its program's Regs(), which the SM
// sizes each warp's scoreboard to, and that footprint fits the kernel's
// RegsPerThread. shared counts Regs from one Emit call each at a zero
// cursor, so this walk over every cursor is what holds that claim.
func TestRegistersWithinAllocation(t *testing.T) {
	for _, w := range All() {
		for _, s := range []Scale{ScaleTest, ScaleSmall, ScaleFull} {
			spec := w.Build(s)
			regs := spec.Program.Regs()
			if regs > spec.RegsPerThread {
				t.Fatalf("%s scale %d: program names %d registers, allocates %d per thread",
					w.Name, s, regs, spec.RegsPerThread)
			}
			var buf isa.WarpInstr
			for cta := 0; cta < spec.NumCTAs(); cta++ {
				for warp := 0; warp < spec.WarpsPerCTA(); warp++ {
					c := isa.Cursor{CTA: cta, Warp: warp}
					for spec.Program.Next(&c, &buf) {
						if n := buf.Regs(); n > regs {
							t.Fatalf("%s scale %d: CTA %d warp %d names r%d, Regs() = %d",
								w.Name, s, cta, warp, n-1, regs)
						}
					}
				}
			}
		}
	}
}

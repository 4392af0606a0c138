package sm

import (
	"testing"

	"gpusched/internal/isa"
	"gpusched/internal/kernel"
)

// drainRig is the standard rig plus a drain-eviction log.
func drainRig(t *testing.T) (*rig, *[]*CTA) {
	r := newRig(t, nil)
	drained := &[]*CTA{}
	r.sm.SetDrainHandler(func(core int, cta *CTA) { *drained = append(*drained, cta) })
	return r, drained
}

func TestDrainCTAEvictsAfterMemoryQuiesces(t *testing.T) {
	r, drained := drainRig(t)
	// One global load feeding a long ALU chain: at drain time the load is
	// in flight, so eviction must wait for it.
	b := isa.NewBuilder()
	b.LoadGlobal(2, 0)
	for i := 0; i < 200; i++ {
		b.FAlu(1, 2)
	}
	b.Exit()
	spec := specWith(2, b.Build())
	cta := r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
	for i := 0; i < 3; i++ {
		r.step()
	}
	if !r.sm.DrainCTA(cta) {
		t.Fatal("DrainCTA refused a resident running CTA")
	}
	if cta.State() != CTADraining {
		t.Fatalf("state after DrainCTA = %d, want CTADraining", cta.State())
	}
	if r.sm.Draining() != 1 {
		t.Fatalf("Draining() = %d, want 1", r.sm.Draining())
	}
	issuedAtDrain := r.sm.counters.InstrIssued
	for i := 0; i < 5000 && len(*drained) == 0; i++ {
		r.step()
	}
	if len(*drained) != 1 || (*drained)[0] != cta {
		t.Fatalf("drain handler saw %d CTAs, want exactly the drained one", len(*drained))
	}
	if cta.State() != CTAEvicted {
		t.Fatalf("state after eviction = %d, want CTAEvicted", cta.State())
	}
	if got := r.sm.counters.InstrIssued; got != issuedAtDrain {
		t.Fatalf("draining warps issued %d instructions", got-issuedAtDrain)
	}
	if r.sm.ResidentCTAs() != 0 || r.sm.Draining() != 0 {
		t.Fatalf("resident=%d draining=%d after eviction, want 0/0", r.sm.ResidentCTAs(), r.sm.Draining())
	}
	if got := r.sm.Usage(); got != (kernel.Usage{}) {
		t.Fatalf("usage not released: %+v", got)
	}
	if r.sm.ResidentOf(0) != 0 {
		t.Fatal("per-kernel residency not released")
	}
	if r.sm.counters.CTAsDrained != 1 || r.sm.counters.CTAsCompleted != 0 {
		t.Fatalf("drained=%d completed=%d, want 1/0", r.sm.counters.CTAsDrained, r.sm.counters.CTAsCompleted)
	}
	if len(r.done) != 0 {
		t.Fatal("drained CTA must not be reported as retired")
	}
}

func TestDrainCTARacesNaturalCompletion(t *testing.T) {
	r, drained := drainRig(t)
	b := isa.NewBuilder()
	b.FAlu(1, 1)
	b.Exit()
	spec := specWith(1, b.Build())
	cta := r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 1000)
	// The CTA retired naturally before the (late) drain request landed: the
	// request must lose the race, with no drain accounting.
	if r.sm.DrainCTA(cta) {
		t.Fatal("DrainCTA accepted an already-retired CTA")
	}
	if r.sm.counters.CTAsDrained != 0 || len(*drained) != 0 {
		t.Fatal("losing drain request still produced an eviction")
	}
	if r.sm.counters.CTAsCompleted != 1 || len(r.done) != 1 {
		t.Fatalf("natural completion lost: completed=%d done=%d", r.sm.counters.CTAsCompleted, len(r.done))
	}
	// Re-draining an evicted or draining CTA is likewise refused.
	if cta.State() != CTARunning {
		t.Fatalf("retired CTA state mutated to %d", cta.State())
	}
}

func TestDrainCTAWithBarrierParkedWarps(t *testing.T) {
	r, drained := drainRig(t)
	// Warp 0 parks at the barrier immediately; warp 1 works through a long
	// chain first. The drain hits while warp 0 is at the barrier, so
	// eviction must unwind barrier bookkeeping without deadlock or panic.
	spec := perWarpSpec(2, func(ctaID, w int) isa.Program {
		b := isa.NewBuilder()
		if w == 1 {
			for i := 0; i < 300; i++ {
				b.FAlu(1, 1)
			}
		}
		b.Barrier()
		b.Exit()
		return b.Build()
	})
	cta := r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
	for i := 0; i < 20; i++ {
		r.step()
	}
	if !r.sm.DrainCTA(cta) {
		t.Fatal("DrainCTA refused")
	}
	if r.sm.DrainCTA(cta) {
		t.Fatal("second DrainCTA on a draining CTA must be refused")
	}
	for i := 0; i < 100 && len(*drained) == 0; i++ {
		r.step()
	}
	if len(*drained) != 1 {
		t.Fatal("barrier-parked CTA never evicted")
	}
	// The core must stay healthy for fresh work after the unwind.
	b := isa.NewBuilder()
	b.FAlu(1, 1)
	b.Exit()
	fresh := specWith(2, b.Build())
	r.sm.AddCTA(fresh, 1, 0, 0, r.now, 0, r.now)
	r.runUntilDone(1, 5000)
}

func TestDrainCTAWithoutMemoryEvictsNextTick(t *testing.T) {
	r, drained := drainRig(t)
	b := isa.NewBuilder()
	for i := 0; i < 500; i++ {
		b.FAlu(1, 1)
	}
	b.Exit()
	spec := specWith(2, b.Build())
	cta := r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
	for i := 0; i < 5; i++ {
		r.step()
	}
	if !r.sm.DrainCTA(cta) {
		t.Fatal("DrainCTA refused")
	}
	r.step()
	if len(*drained) != 1 {
		t.Fatal("CTA with no in-flight memory should evict on the next tick")
	}
}

func TestNextEventPinnedWhileDraining(t *testing.T) {
	r, _ := drainRig(t)
	b := isa.NewBuilder()
	for i := 0; i < 50; i++ {
		b.FAlu(1, 1)
	}
	b.Exit()
	spec := specWith(1, b.Build())
	cta := r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
	r.step()
	if !r.sm.DrainCTA(cta) {
		t.Fatal("DrainCTA refused")
	}
	if ev := r.sm.NextEvent(r.now); ev != r.now {
		t.Fatalf("NextEvent during drain = %d, want now (%d): fast-forward must not skip drain windows", ev, r.now)
	}
}

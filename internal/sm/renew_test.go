package sm

import (
	"testing"

	"gpusched/internal/isa"
	"gpusched/internal/mem"
)

// TestRenewReclaimsContexts cuts a run while CTAs are resident and their
// loads in flight, renews the core, and checks what the renewed core holds:
// every CTA context in its pool, an idle LDST unit, and a run that takes
// exactly as long as on a new core.
func TestRenewReclaimsContexts(t *testing.T) {
	b := isa.NewBuilder()
	for i := 0; i < 8; i++ {
		b.LoadGlobalStride(1, uint32(i)*4096, 128).FAlu(2, 1)
	}
	b.StoreGlobal(2, 0).Exit()
	spec := specWith(4, b.Build())

	cycles := func(r *rig) uint64 {
		start := r.now
		r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
		r.runUntilDone(len(r.done)+1, start+100_000)
		return r.now - start
	}
	want := cycles(newRig(t, nil))

	r := newRig(t, nil)
	r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
	r.sm.AddCTA(spec, 1, 1, 0, 0, 0, r.now)
	for i := 0; i < 200; i++ {
		r.step()
	}
	if len(r.sm.CTAs()) != 2 || !r.sm.ldst.busy() {
		t.Fatalf("cut the run too late: %d CTAs resident, LDST busy %v", len(r.sm.CTAs()), r.sm.ldst.busy())
	}
	old := r.sm
	memCfg := mem.DefaultConfig()
	r.sys = mem.RenewSystem(r.sys, &memCfg, 1)
	r.sm = Renew(old, 0, old.cfg, r.sys, 4, func(core int, cta *CTA) { r.done = append(r.done, cta) })
	r.now, r.done = 0, nil

	if r.sm != old {
		t.Error("Renew built a new SM instead of renewing its predecessor")
	}
	if len(r.sm.ctaPool) != 2 {
		t.Errorf("%d CTA contexts pooled, want the 2 resident ones", len(r.sm.ctaPool))
	}
	if !r.sm.Idle() || r.sm.ResidentCTAs() != 0 {
		t.Errorf("renewed core is not idle: %d CTAs, LDST busy %v", r.sm.ResidentCTAs(), r.sm.ldst.busy())
	}
	if got := cycles(r); got != want {
		t.Errorf("a CTA on the renewed core took %d cycles, on a new core %d", got, want)
	}
}

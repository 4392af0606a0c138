package sm

import (
	"fmt"
	"slices"
	"testing"

	"gpusched/internal/isa"
	"gpusched/internal/workloads"
)

// checkCerts is the independent check of the stall certificates: for every
// scheduler whose certificate claims to hold at r.now, drop it, run the plain
// pick, and require the verdict the certificate would have served: nothing
// issued, the same reason, and under two-level the fetch groups unswapped. The
// pick caches (fetch, the stall cache, the operands-ready sets) what the next
// real pick would compute anyway; the certificate and the walk counters are
// restored, so a checked run is the run.
func checkCerts(r *rig) {
	r.t.Helper()
	for i := range r.sm.schedulers {
		sched := &r.sm.schedulers[i]
		if len(sched.warps) == 0 || !r.sm.certified(sched, r.now) {
			continue
		}
		saved, walks, evals := sched.cert, r.sm.issueWalks, sched.evals
		active := slices.Clone(sched.active)
		sched.cert.until = 0
		w, reason := r.sm.pickOrReason(sched, r.now)
		if w != nil || reason != saved.reason {
			r.t.Fatalf("cycle %d scheduler %d: certificate %+v, but the walk returns (issuable=%v, reason %d)",
				r.now, i, saved, w != nil, reason)
		}
		if !slices.Equal(active, sched.active) {
			r.t.Fatalf("cycle %d scheduler %d: certificate %+v, but the pick swapped the fetch groups", r.now, i, saved)
		}
		sched.cert, r.sm.issueWalks, sched.evals = saved, walks, evals
	}
}

// dropCerts makes every pick of the coming cycle a walk: the reference run.
func dropCerts(r *rig) {
	for i := range r.sm.schedulers {
		r.sm.schedulers[i].cert.until = 0
	}
}

// progOf adapts a builder function to kernel.Spec.Program.
func progOf(f func(b *isa.Builder, ctaID, w int)) func(int, int) isa.Program {
	return func(ctaID, w int) isa.Program {
		b := isa.NewBuilder()
		f(b, ctaID, w)
		return b.Exit().Build()
	}
}

func chain(b *isa.Builder, n int) {
	for i := 0; i < n; i++ {
		b.FAlu(1, 1)
	}
}

// loadThenUse is one coalesced miss feeding an ALU op: the warp parks on the
// scoreboard for a memory round trip.
func loadThenUse(b *isa.Builder, ctaID, w int) {
	b.LoadGlobal(2, uint32(ctaID*8+w)*4096).FAlu(1, 2)
}

// runSuite plays a registry workload at ScaleTest through the rig, the rig
// acting as a one-SM round-robin dispatcher.
func runSuite(r *rig, name string) {
	w, ok := workloads.ByName(name)
	if !ok {
		r.t.Fatalf("no workload %q", name)
	}
	spec := w.Build(workloads.ScaleTest)
	n := spec.NumCTAs()
	for next := 0; len(r.done) < n; r.step() {
		for next < n && r.sm.CanAccept(spec) {
			r.sm.AddCTA(spec, 0, next, 1<<33, r.now, 0, r.now)
			next++
		}
		if r.now > 2_000_000 {
			r.t.Fatalf("%s: %d/%d CTAs by cycle %d", name, len(r.done), n, r.now)
		}
	}
}

type certScenario struct {
	name string
	cfg  func(*Config)
	// run places the work and steps the rig until it is done.
	run func(r *rig)
}

// certScenarios hit every kind of stall a certificate can record and every
// transition that must clear one.
func certScenarios() []certScenario {
	return []certScenario{
		{"ldst-queue-full", func(c *Config) { c.LDSTQueueCap = 2 }, func(r *rig) {
			spec := perWarpSpec(8, progOf(func(b *isa.Builder, ctaID, w int) {
				for i := 0; i < 3; i++ { // 16 lines a load: the head holds the unit 16 cycles
					b.LoadGlobalStride(isa.Reg(2+i), uint32((ctaID*8+w)<<20+i<<18), 256)
				}
				b.FAlu(1, 2, 3, 4)
			}))
			r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
			r.sm.AddCTA(spec, 0, 1, 0, 0, 0, r.now)
			r.runUntilDone(2, 200000)
		}},
		{"ldst-holds-active-set", func(c *Config) {
			c.NumSchedulers, c.LDSTQueueCap, c.ActiveSetSize = 1, 1, 2
		}, func(r *rig) {
			// Eight warps store without ever waiting on a load: under
			// two-level the active pair stalls on the LDST unit while six
			// warps are pending, and with no warp to swap out the failed
			// pick certifies.
			spec := perWarpSpec(8, progOf(func(b *isa.Builder, ctaID, w int) {
				for i := 0; i < 3; i++ {
					wi := isa.WarpInstr{Op: isa.OpStoreGlobal, Src: [3]isa.Reg{1}, Mask: isa.FullMask}
					isa.FillLinear(&wi, uint32(w<<20+i<<16), 256)
					b.Append(wi)
				}
			}))
			r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
			r.runUntilDone(1, 100000)
		}},
		{"pending-table", func(c *Config) { c.MaxPendingLoads = 1 }, func(r *rig) {
			spec := perWarpSpec(4, progOf(func(b *isa.Builder, ctaID, w int) {
				b.LoadGlobal(2, uint32(w)*4096).LoadGlobal(3, uint32(w)*4096+65536).FAlu(1, 2, 3)
			}))
			r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
			r.runUntilDone(1, 100000)
		}},
		{"sfu-interval", nil, func(r *rig) {
			spec := perWarpSpec(8, progOf(func(b *isa.Builder, ctaID, w int) {
				for i := 0; i < 10; i++ {
					b.Sfu(isa.Reg(1+i%8), 0)
				}
			}))
			r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
			r.runUntilDone(1, 100000)
		}},
		{"barrier", nil, func(r *rig) {
			spec := perWarpSpec(4, progOf(func(b *isa.Builder, ctaID, w int) {
				if w == 0 {
					chain(b, 30)
				}
				b.Barrier().LoadShared(2, 2).FAlu(1, 2)
				if w == 3 {
					loadThenUse(b, ctaID, w)
				}
				b.Barrier()
			}))
			r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
			r.sm.AddCTA(spec, 0, 1, 0, 0, 0, r.now)
			r.runUntilDone(2, 100000)
		}},
		{"two-kernels", nil, func(r *rig) {
			mem := perWarpSpec(4, progOf(func(b *isa.Builder, ctaID, w int) {
				for i := 0; i < 4; i++ {
					b.LoadGlobal(2, uint32((ctaID*4+w)*4+i)*4096).FAlu(1, 2)
				}
			}))
			alu := perWarpSpec(2, progOf(func(b *isa.Builder, ctaID, w int) { chain(b, 60) }))
			r.sm.AddCTA(mem, 0, 0, 1<<33, 0, 0, r.now)
			for i := 0; i < 50; i++ {
				r.step()
			}
			r.sm.AddCTA(alu, 1, 0, 2<<33, r.now, 0, r.now)
			r.sm.AddCTA(mem, 0, 1, 1<<33, r.now, 0, r.now)
			r.runUntilDone(3, 100000)
		}},
		{"drain", nil, func(r *rig) {
			evicted := 0
			r.sm.SetDrainHandler(func(int, *CTA) { evicted++ })
			spec := perWarpSpec(2, progOf(func(b *isa.Builder, ctaID, w int) {
				loadThenUse(b, ctaID, w)
				chain(b, 40)
			}))
			victim := r.sm.AddCTA(spec, 0, 0, 0, 0, 0, r.now)
			r.sm.AddCTA(spec, 0, 1, 0, 0, 0, r.now)
			for i := 0; i < 30; i++ {
				r.step()
			}
			if !r.sm.DrainCTA(victim) {
				r.t.Fatal("DrainCTA refused")
			}
			r.runUntilDone(1, 100000)
			if evicted != 1 {
				r.t.Fatalf("evicted %d CTAs, want 1", evicted)
			}
			r.sm.AddCTA(spec, 0, 0, 0, r.now, 0, r.now) // the re-dispatch
			r.runUntilDone(2, 100000)
		}},
		{"late-older-block", nil, func(r *rig) { // BAWS slots the second CTA's warps first
			spec := perWarpSpec(4, progOf(func(b *isa.Builder, ctaID, w int) {
				loadThenUse(b, ctaID, w)
				b.Barrier()
				chain(b, 10+10*w)
			}))
			r.sm.AddCTA(spec, 0, 0, 0, 7, 0, r.now)
			r.step()
			r.sm.AddCTA(spec, 0, 1, 0, 3, 1, r.now)
			r.runUntilDone(2, 100000)
		}},
		{"sgemm", nil, func(r *rig) { runSuite(r, "sgemm") }},
		{"stencil", nil, func(r *rig) { runSuite(r, "stencil") }},
		{"spmv", nil, func(r *rig) { runSuite(r, "spmv") }},
	}
}

// certRun plays sc under policy with hook before every step and returns
// everything of the finished run the certificates could disturb.
func certRun(t *testing.T, sc certScenario, policy Policy, hook func(*rig)) string {
	r := newRig(t, func(c *Config) {
		if sc.cfg != nil {
			sc.cfg(c)
		}
		c.WarpPolicy = policy
	})
	r.beforeStep = hook
	sc.run(r)
	return fmt.Sprintf("%d cycles, core %+v, L1 %+v, load latency sum %d", r.now, r.sm.counters, r.sm.L1Stats(r.now), r.sm.memLatencySum)
}

// TestStallCertificateLockstep runs every scenario twice per warp policy:
// once with checkCerts auditing each certificate against the plain pick at
// every cycle it claims, and once with no certificate ever surviving a cycle
// (every pick walks) — the two must agree on the cycle count and on every
// counter.
func TestStallCertificateLockstep(t *testing.T) {
	for _, sc := range certScenarios() {
		for _, policy := range []Policy{PolicyGTO, PolicyBAWS, PolicyLRR, PolicyTwoLevel} {
			sc, policy := sc, policy
			t.Run(sc.name+"/"+policy.String(), func(t *testing.T) {
				served, heldPending := uint64(0), false
				got := certRun(t, sc, policy, func(r *rig) {
					checkCerts(r)
					_, served, _ = r.sm.IssueCounts(r.now)
					for i := range r.sm.schedulers {
						sched := &r.sm.schedulers[i]
						heldPending = heldPending || len(sched.pending) > 0 && r.sm.certified(sched, r.now)
					}
				})
				if served == 0 {
					t.Error("no scheduler-cycle was served by a certificate")
				}
				if sc.name == "ldst-holds-active-set" && policy == PolicyTwoLevel && !heldPending {
					t.Error("no certificate stood while two-level warps were pending")
				}
				if ref := certRun(t, sc, policy, dropCerts); got != ref {
					t.Errorf("certificates changed the run:\n%s\nvs walking every cycle:\n%s", got, ref)
				}
			})
		}
	}
}

// TestStallCertificateInvalidationSites has one sub-test per transition that
// must clear a certificate; each is built so that deleting that one clear
// leaves a certificate standing that checkCerts then catches (CHANGES.md, PR
// 22, lists the mutation runs). Where the transition is an outside call, it
// is swept over consecutive cycles and must land on a standing certificate
// at least once.
func TestStallCertificateInvalidationSites(t *testing.T) {
	one := func(c *Config) { c.NumSchedulers = 1 }
	// sweep runs scenario(at) for a window of cycles; scenario reports whether
	// its transition met a standing certificate.
	sweep := func(t *testing.T, cfg func(*Config), scenario func(r *rig, at int) bool) {
		t.Helper()
		met := 0
		for at := 12; at < 28; at++ {
			r := newRig(t, cfg)
			r.beforeStep = checkCerts
			if scenario(r, at) {
				met++
			}
		}
		if met == 0 {
			t.Fatal("the transition never met a standing certificate")
		}
	}
	stepTo := func(r *rig, at int) {
		for int(r.now) < at {
			r.step()
		}
	}
	standing := func(r *rig, i int) bool { return r.sm.certified(&r.sm.schedulers[i], r.now) }

	t.Run("load-return", func(t *testing.T) { // Warp.clearStall
		r := newRig(t, nil)
		r.beforeStep = checkCerts
		r.sm.AddCTA(perWarpSpec(1, progOf(loadThenUse)), 0, 0, 0, 0, 0, r.now)
		r.runUntilDone(1, 10000)
	})
	t.Run("barrier-release", func(t *testing.T) { // releaseBarrier
		r := newRig(t, nil)
		r.beforeStep = checkCerts
		// Warp 0 (scheduler 0) waits at the barrier for warp 1 (scheduler 1).
		r.sm.AddCTA(perWarpSpec(2, progOf(func(b *isa.Builder, ctaID, w int) {
			chain(b, 20*w)
			b.Barrier()
		})), 0, 0, 0, 0, 0, r.now)
		r.runUntilDone(1, 10000)
	})
	t.Run("add", func(t *testing.T) { // scheduler.add
		r := newRig(t, nil)
		r.beforeStep = checkCerts
		r.sm.AddCTA(perWarpSpec(1, progOf(loadThenUse)), 0, 0, 0, 0, 0, r.now)
		stepTo(r, 20)
		if !standing(r, 0) {
			t.Fatal("scheduler 0 holds no certificate while its only warp waits on memory")
		}
		// Two warps: the second lands on scheduler 0, ready to issue.
		r.sm.AddCTA(perWarpSpec(2, progOf(func(b *isa.Builder, ctaID, w int) { chain(b, 5) })), 0, 1, 0, r.now, 0, r.now)
		r.runUntilDone(2, 10000)
	})
	t.Run("remove", func(t *testing.T) { // scheduler.remove, by eviction
		// The older CTA computes, the younger waits on memory; evicting the
		// older one moves the stall attribution to the younger.
		sweep(t, one, func(r *rig, at int) bool {
			victim := r.sm.AddCTA(perWarpSpec(1, progOf(func(b *isa.Builder, ctaID, w int) { chain(b, 200) })), 0, 0, 0, 0, 0, r.now)
			r.sm.AddCTA(perWarpSpec(1, progOf(loadThenUse)), 0, 1, 0, 0, 0, r.now)
			stepTo(r, at)
			r.sm.DrainCTA(victim)
			issued := r.sm.counters.InstrIssued
			r.step() // the drain tick: the pick fails and certifies, then the victim is evicted
			met := r.sm.counters.InstrIssued == issued && r.sm.ResidentCTAs() == 1
			r.runUntilDone(1, 10000)
			return met
		})
	})
	t.Run("drain", func(t *testing.T) { // SM.DrainCTA
		sweep(t, nil, func(r *rig, at int) bool {
			victim := r.sm.AddCTA(perWarpSpec(2, progOf(func(b *isa.Builder, ctaID, w int) { chain(b, 100) })), 0, 0, 0, 0, 0, r.now)
			stepTo(r, at)
			met := standing(r, 0) && standing(r, 1)
			r.sm.DrainCTA(victim)
			r.step()
			return met
		})
	})
	t.Run("ldst-queue-slot", func(t *testing.T) { // ldstUnit.popHead
		r := newRig(t, func(c *Config) { c.LDSTQueueCap = 1 })
		r.beforeStep = checkCerts
		// Warp 0's 16-line load holds the one queue slot; warp 1, on the other
		// scheduler, waits for it with nothing else to wake it.
		r.sm.AddCTA(perWarpSpec(2, progOf(func(b *isa.Builder, ctaID, w int) {
			b.LoadGlobalStride(2, uint32(w)<<20, 256).FAlu(1, 2)
		})), 0, 0, 0, 0, 0, r.now)
		r.runUntilDone(1, 10000)
	})
	t.Run("ldst-token", func(t *testing.T) { // ldstUnit.completeOne
		r := newRig(t, func(c *Config) { c.MaxPendingLoads = 1 })
		r.beforeStep = checkCerts
		// Warp 0's load holds the one pending-load token until it returns;
		// warp 1, on the other scheduler, waits for the token.
		r.sm.AddCTA(perWarpSpec(2, progOf(loadThenUse)), 0, 0, 0, 0, 0, r.now)
		r.runUntilDone(1, 10000)
	})
}

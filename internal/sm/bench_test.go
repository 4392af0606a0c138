package sm

import (
	"testing"

	"gpusched/internal/isa"
	"gpusched/internal/kernel"
	"gpusched/internal/mem"
)

// benchSM fills one SM with up to six CTAs of the given warp count, each
// warp running head once and then 10,000 dependent ALU ops.
func benchSM(policy Policy, warps int, head func(b *isa.Builder)) (*SM, *mem.System) {
	cfg := DefaultConfig()
	cfg.WarpPolicy = policy
	memCfg := mem.DefaultConfig()
	sys := mem.NewSystem(&memCfg, 1)
	s := New(0, &cfg, sys, 1, nil)
	spec := &kernel.Spec{
		Name:          "bench",
		Grid:          kernel.Dim3{X: 1024},
		Block:         kernel.Dim3{X: warps * isa.WarpSize},
		RegsPerThread: 8,
		Program: func(ctaID, w int) isa.Program {
			// Endless-ish dependent ALU work: the scheduler always has a
			// scoreboard decision to make.
			b := isa.NewBuilder()
			head(b)
			for i := 0; i < 10000; i++ {
				b.FAlu(1, 1)
			}
			b.Exit()
			return b.Build()
		},
	}
	for i := 0; i < 6 && s.CanAccept(spec); i++ {
		s.AddCTA(spec, 0, i, 0, 0, 0, 0)
	}
	return s, sys
}

func benchTick(b *testing.B, policy Policy) {
	s, sys := benchSM(policy, 8, func(*isa.Builder) {})
	b.ResetTimer()
	for now := uint64(0); now < uint64(b.N); now++ {
		s.Tick(now)
		sys.Tick(now)
	}
	b.ReportMetric(float64(s.counters.InstrIssued)/float64(b.N), "instr/cycle")
}

func BenchmarkSMTickLRR(b *testing.B)  { benchTick(b, PolicyLRR) }
func BenchmarkSMTickGTO(b *testing.B)  { benchTick(b, PolicyGTO) }
func BenchmarkSMTickBAWS(b *testing.B) { benchTick(b, PolicyBAWS) }

// BenchmarkSchedulerPickStalled times the failed picks of memory-bound
// phases. With every warp waiting on a pending load, "served" is the steady
// state, the verdict read from the stall certificate, and "walk" is the cycle
// after an invalidation, one pass over the warps that writes the next one.
// "ldst-full" is a walk in which every warp's head is a ready load and the
// LDST queue is full: the refused heads leave the walk as one set.
func BenchmarkSchedulerPickStalled(b *testing.B) {
	pick := func(b *testing.B, s *SM, invalidate bool, want skipReason) {
		sched := &s.schedulers[0]
		for i := 0; i < b.N; i++ {
			if invalidate {
				sched.cert.until = 0
			}
			if w, reason := s.pickOrReason(sched, 1); w != nil || reason != want {
				b.Fatalf("pick = (%v, %d), want a stall of kind %d", w, reason, want)
			}
		}
	}
	waiting, _ := benchSM(PolicyGTO, 8, func(*isa.Builder) {})
	for _, w := range waiting.schedulers[0].warps {
		w.fetch()
		w.setReady(1, notReady)
	}
	b.Run("served", func(b *testing.B) { pick(b, waiting, false, skipScoreboard) })
	b.Run("walk", func(b *testing.B) { pick(b, waiting, true, skipScoreboard) })
	full, _ := benchSM(PolicyGTO, 8, func(b *isa.Builder) { b.LoadGlobal(2, 0) })
	full.ldst.qLen = full.ldst.cap
	b.Run("ldst-full", func(b *testing.B) { pick(b, full, true, skipStructural) })
}

package sm

import (
	"testing"

	"gpusched/internal/isa"
	"gpusched/internal/kernel"
	"gpusched/internal/mem"
)

func benchSM(policy Policy, warps int) (*SM, *mem.System) {
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
	s, sys := benchSM(policy, 8)
	b.ResetTimer()
	for now := uint64(0); now < uint64(b.N); now++ {
		s.Tick(now)
		sys.Tick(now)
	}
	b.ReportMetric(float64(s.Stats.InstrIssued)/float64(b.N), "instr/cycle")
}

func BenchmarkSMTickLRR(b *testing.B)  { benchTick(b, PolicyLRR) }
func BenchmarkSMTickGTO(b *testing.B)  { benchTick(b, PolicyGTO) }
func BenchmarkSMTickBAWS(b *testing.B) { benchTick(b, PolicyBAWS) }

// BenchmarkSchedulerPickStalled is the dominant scheduler-cycle of memory-
// bound phases: every warp waits on a pending load. "served" is the steady
// state, the verdict read from the stall certificate; "walk" is the cycle
// after an invalidation, one pass over the warps that writes the next one.
func BenchmarkSchedulerPickStalled(b *testing.B) {
	s, _ := benchSM(PolicyGTO, 8)
	sched := &s.schedulers[0]
	for _, w := range sched.warps {
		w.fetch()
		w.readyAt[1] = notReady
	}
	pick := func(b *testing.B, invalidate bool) {
		for i := 0; i < b.N; i++ {
			if invalidate {
				sched.cert.until = 0
			}
			if w, reason := s.pickOrReason(sched, 1); w != nil || reason != skipScoreboard {
				b.Fatalf("pick = (%v, %d), want a scoreboard stall", w, reason)
			}
		}
	}
	b.Run("served", func(b *testing.B) { pick(b, false) })
	b.Run("walk", func(b *testing.B) { pick(b, true) })
}

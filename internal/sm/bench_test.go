package sm

import (
	"testing"

	"gpusched/internal/isa"
	"gpusched/internal/kernel"
	"gpusched/internal/mem"
)

// benchProg runs head once, then dependent ALU ops forever, so the
// scheduler always has a scoreboard decision to make. One instance serves
// every warp, as a workload's program template does: the instruction
// records a tick reads stay in the host's cache.
type benchProg struct{ head []isa.WarpInstr }

func (p *benchProg) Next(c *isa.Cursor, buf *isa.WarpInstr) bool {
	if c.Pos < len(p.head) {
		*buf = p.head[c.Pos]
		c.Pos++
		return true
	}
	*buf = benchALU
	return true
}

// benchALU is the dependent op benchProg repeats: r1 = f(r1).
var benchALU = isa.WarpInstr{Op: isa.OpFAlu, Dst: 1, Src: [3]isa.Reg{1}, Mask: isa.FullMask}

func (p *benchProg) Regs() int {
	n := benchALU.Regs()
	for i := range p.head {
		n = max(n, p.head[i].Regs())
	}
	return n
}

// benchSM fills one SM with up to six CTAs of the given warp count, every
// warp running one shared benchProg.
func benchSM(policy Policy, warps int, head func(b *isa.Builder)) (*SM, *mem.System) {
	cfg := DefaultConfig()
	cfg.WarpPolicy = policy
	memCfg := mem.DefaultConfig()
	sys := mem.NewSystem(&memCfg, 1)
	s := New(0, &cfg, sys, 1, nil)
	b := isa.NewBuilder()
	head(b)
	prog := &benchProg{head: b.Build().Instrs}
	spec := &kernel.Spec{
		Name:          "bench",
		Grid:          kernel.Dim3{X: 1024},
		Block:         kernel.Dim3{X: warps * isa.WarpSize},
		RegsPerThread: 8,
		Program:       prog,
	}
	for i := 0; i < 6 && s.CanAccept(spec); i++ {
		s.AddCTA(spec, 0, i, 0, 0, 0, 0)
	}
	return s, sys
}

// benchTick ticks the SM b.N cycles and reports the host time per issued
// instruction, the cost of the fetch, pick and issue path.
func benchTick(b *testing.B, policy Policy) {
	s, sys := benchSM(policy, 8, func(*isa.Builder) {})
	b.ResetTimer()
	for now := uint64(0); now < uint64(b.N); now++ {
		s.Tick(now)
		sys.Tick(now)
	}
	b.StopTimer()
	issued := float64(s.counters.InstrIssued)
	b.ReportMetric(issued/float64(b.N), "instr/cycle")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/issued, "ns/instr")
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
		w.fetch(waiting.ldst)
		w.setReady(1, notReady)
	}
	b.Run("served", func(b *testing.B) { pick(b, waiting, false, skipScoreboard) })
	b.Run("walk", func(b *testing.B) { pick(b, waiting, true, skipScoreboard) })
	full, _ := benchSM(PolicyGTO, 8, func(b *isa.Builder) { b.LoadGlobal(2, 0) })
	full.ldst.qLen = full.ldst.cap
	b.Run("ldst-full", func(b *testing.B) { pick(b, full, true, skipStructural) })
}

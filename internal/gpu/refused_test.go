package gpu

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"gpusched/internal/isa"
	"gpusched/internal/kernel"
	"gpusched/internal/sm"
	"gpusched/internal/workloads"
)

// refusedShapes is the number of refusedHeadsMachine shapes.
const refusedShapes = 576

// refusedHeadsMachine is a small machine whose LDST heads are refused most
// of the time: 2–4 SMs sending through request queues of 1–2 entries, 1–4 L1
// MSHR entries of 1–2 merges each, GTO or LRR warp scheduling, and the
// calendar's memory shapes — a crossbar latency of 1 (a delivery poppable on
// the next cycle) or the default 12, and 1, 2 or 6 partitions — all picked
// from shape's digits.
func refusedHeadsMachine(shape uint16) Config {
	cfg := DefaultConfig()
	cfg.NumCores = 2 + int(shape%3)
	cfg.Mem.XbarQueueCap = 1 + int(shape/3%2)
	cfg.Mem.L1MSHREntries = 1 + int(shape/6%4)
	cfg.Mem.L1MSHRMerges = 1 + int(shape/24%2)
	if shape/48%2 == 1 {
		cfg.Core.WarpPolicy = sm.PolicyLRR
	}
	cfg.Mem.XbarLatency = []uint64{1, 12}[shape/96%2]
	cfg.Mem.Partitions = []int{1, 2, 6}[shape/192%3]
	cfg.MaxCycles = 2_000_000
	return cfg
}

// refusedHeadsSpec is a kernel of memory instructions issued back to back:
// every warp of its CTAs runs a seeded mix of coalesced and scattered loads,
// stores and atomics over a footprint small enough for L1 hits and MSHR
// merges, with a few ALU ops consuming the loads. Its LDST queues stay full
// and their heads wait on MSHR entries, merge slots and request-queue space.
func refusedHeadsSpec(seed uint64) *kernel.Spec {
	const footprint = 1 << 14 // bytes: 128 lines
	const ctas, warps = 6, 4
	var progs []isa.Program
	for ctaID := 0; ctaID < ctas; ctaID++ {
		for w := 0; w < warps; w++ {
			rng := rand.New(rand.NewPCG(seed, uint64(ctaID*64+w)))
			scattered := func() (a [isa.WarpSize]uint32) {
				for l := range a {
					a[l] = rng.Uint32N(footprint/4) * 4
				}
				return a
			}
			b := isa.NewBuilder()
			for range 16 {
				base := rng.Uint32N(footprint/128) * 128
				switch rng.IntN(6) {
				case 0, 1:
					b.LoadGlobal(isa.Reg(1+rng.IntN(3)), base)
				case 2:
					b.LoadGlobalAddrs(isa.Reg(1+rng.IntN(3)), scattered())
				case 3:
					b.StoreGlobal(4, base)
				case 4:
					b.Atomic(5, scattered(), isa.FullMask)
				default:
					b.IAlu(6, isa.Reg(1+rng.IntN(3)))
				}
			}
			progs = append(progs, b.Exit().Build())
		}
	}
	return &kernel.Spec{
		Name:          "refused",
		Grid:          ctas,
		Block:         warps * isa.WarpSize,
		RegsPerThread: 8,
		Program:       isa.NewPerWarp(warps, progs),
	}
}

// runRefusedHeads runs refusedHeadsSpec on shape's machine under both loops
// and fails unless RunContext commits RunReference's Result — L1 accesses,
// misses and MSHR stalls and StallLDSTFull, which a parked SM's refused head
// settles on read, and the L2 counters, which a partition's waiting head
// settles on read, among the rest — while ticking at most half as many SMs.
// The heads of these kernels are refused far more often than not, so an SM
// that could not park with a refused head would tick nearly every cycle. It
// returns the RunContext Result.
func runRefusedHeads(t *testing.T, seed uint64, shape uint16) Result {
	t.Helper()
	cfg := refusedHeadsMachine(shape)
	var res [2]Result
	var es [2]EngineStats
	for i, loop := range []loop{(*GPU).RunContext, (*GPU).RunReference} {
		g, err := New(cfg, roundRobin(), refusedHeadsSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		res[i] = runToEnd(g, loop)
		es[i] = g.EngineStats()
	}
	got, ref := res[0], res[1]
	if got.TimedOut || ref.TimedOut {
		t.Fatalf("seed %d shape %d: timed out (%d, reference %d cycles)", seed, shape, got.Cycles, ref.Cycles)
	}
	if got.L1 != ref.L1 {
		t.Errorf("seed %d shape %d: L1 %+v, reference %+v", seed, shape, got.L1, ref.L1)
	}
	if got.L2 != ref.L2 {
		t.Errorf("seed %d shape %d: L2 %+v, reference %+v", seed, shape, got.L2, ref.L2)
	}
	if got.Core.StallLDSTFull != ref.Core.StallLDSTFull {
		t.Errorf("seed %d shape %d: StallLDSTFull %d, reference %d", seed, shape, got.Core.StallLDSTFull, ref.Core.StallLDSTFull)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("seed %d shape %d: diverged from RunReference:\n%+v\nvs\n%+v", seed, shape, got, ref)
	}
	if 2*es[0].SMTicks > es[1].SMTicks {
		t.Errorf("seed %d shape %d: RunContext ticked %d SMs, more than half of RunReference's %d",
			seed, shape, es[0].SMTicks, es[1].SMTicks)
	}
	return got
}

// TestRefusedHeadsMatchReference is the SM-side oracle for parking an SM
// whose LDST head the L1 refused: 96 machine shapes, at one of two seeds,
// must match the reference loop, which ticks every SM every cycle and so
// retries every refused head. Each of the first 96 shapes runs on one of the
// six memory shapes, chosen so that every memory shape meets every core
// count, queue capacity and warp policy; FuzzRefusedHeads explores all of
// them. Together the runs must refuse heads for want of MSHR entries.
func TestRefusedHeadsMatchReference(t *testing.T) {
	var mshrStalls uint64
	for base := range uint16(96) {
		shape := base + 96*(base/6%6)
		mshrStalls += runRefusedHeads(t, uint64(shape%2), shape).L1.MSHRStalls
	}
	if mshrStalls == 0 {
		t.Error("no L1 MSHR refusal")
	}
}

// FuzzRefusedHeads runs the oracle on fuzzer-chosen seeds and shapes.
func FuzzRefusedHeads(f *testing.F) {
	f.Add(uint64(1), uint16(0))
	f.Add(uint64(2), uint16(133))
	f.Add(uint64(3), uint16(575))
	f.Fuzz(func(t *testing.T, seed uint64, shape uint16) {
		runRefusedHeads(t, seed, shape%refusedShapes)
	})
}

// TestOneWarpChaseMatchesReference runs the benchmark's idle shape — one warp
// of dependent loads, every SM parked on nearly every cycle, so the calendar
// jumps from one memory event to the next — on each of the calendar's memory
// shapes, and fails unless RunContext commits RunReference's Result, L1 and
// L2 counters included.
func TestOneWarpChaseMatchesReference(t *testing.T) {
	for _, latency := range []uint64{1, 12} {
		for _, partitions := range []int{1, 2, 6} {
			cfg := DefaultConfig()
			cfg.Mem.XbarLatency, cfg.Mem.Partitions = latency, partitions
			t.Run(fmt.Sprintf("xbar-%d/partitions-%d", latency, partitions), func(t *testing.T) {
				r := runFFAndReference(t, cfg, roundRobin, func() []*kernel.Spec {
					return []*kernel.Spec{workloads.ChaseSpec(1, 1, 256)}
				}, runToEnd)
				if r.L1.Misses == 0 || r.L2.Accesses == 0 {
					t.Errorf("the chase reached no memory: L1 %+v, L2 %+v", r.L1, r.L2)
				}
			})
		}
	}
}

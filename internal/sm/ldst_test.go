package sm

import (
	"testing"

	"gpusched/internal/isa"
)

func TestPendingTableExhaustionStalls(t *testing.T) {
	// With one pending-load slot, the second outstanding load must wait
	// for the first to complete, yet everything still finishes.
	r := newRig(t, func(c *Config) {
		c.MaxPendingLoads = 1
		c.NumSchedulers = 1
	})
	prog := func(ctaID, w int) isa.Program {
		return isa.NewBuilder().
			LoadGlobal(1, uint32(w)*4096).
			LoadGlobal(2, uint32(w)*4096+65536).
			FAlu(3, 1, 2).
			Exit().Build()
	}
	r.sm.AddCTA(specWith(4, prog), 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 50000)
	if r.sm.counters.StallLDSTFull == 0 && r.sm.counters.StallScoreboard == 0 {
		t.Error("no structural pressure recorded with a 1-entry pending table")
	}
}

func TestLDSTQueueFullStallsCounted(t *testing.T) {
	// A 1-deep LDST queue with divergent (multi-transaction) loads from
	// many warps must reject issue attempts while the head drains.
	r := newRig(t, func(c *Config) {
		c.LDSTQueueCap = 1
		c.NumSchedulers = 1
	})
	prog := func(ctaID, w int) isa.Program {
		b := isa.NewBuilder()
		for i := 0; i < 3; i++ {
			// 16 lines per load: head occupies the unit 16 cycles.
			b.LoadGlobalStride(isa.Reg(1+i), uint32(w*1<<20+i*1<<18), 256)
		}
		b.Exit()
		return b.Build()
	}
	r.sm.AddCTA(specWith(4, prog), 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 100000)
	if r.sm.counters.StallLDSTFull == 0 {
		t.Fatal("no LDST-full stalls with a 1-deep queue and divergent loads")
	}
}

func TestSharedStoreNoToken(t *testing.T) {
	// Shared stores write no register: they must not consume pending-load
	// slots. With zero slots needed, a store-only kernel runs even with
	// MaxPendingLoads exhausted by design.
	r := newRig(t, func(c *Config) { c.MaxPendingLoads = 1 })
	b := isa.NewBuilder()
	for i := 0; i < 10; i++ {
		b.StoreShared(1, 1)
	}
	b.Exit()
	r.sm.AddCTA(specWith(2, fixedProg(b)), 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 20000)
	// Stores are fire-and-forget: drain the LDST queue after CTA exit.
	for i := 0; i < 200; i++ {
		r.step()
	}
	if r.sm.counters.SharedAccesses != 20 {
		t.Fatalf("shared accesses = %d, want 20", r.sm.counters.SharedAccesses)
	}
}

func TestGlobalStoreBandwidthCounted(t *testing.T) {
	r := newRig(t, nil)
	b := isa.NewBuilder()
	for i := 0; i < 4; i++ {
		b.StoreGlobal(1, uint32(i*128))
	}
	b.Exit()
	r.sm.AddCTA(specWith(1, fixedProg(b)), 0, 0, 0, 0, 0, r.now)
	// Stores are fire-and-forget; drain the memory system too.
	for r.now < 5000 {
		r.step()
	}
	dram := r.sys.DRAMStats()
	if dram.Writes != 4 {
		t.Fatalf("DRAM writes = %d, want 4 (write-through, no-allocate)", dram.Writes)
	}
}

func TestAtomicSerializationCost(t *testing.T) {
	// All warps atomically update the same line: completion must be far
	// slower than the same pattern with plain loads (L2 RMW occupancy).
	run := func(op isa.Op) uint64 {
		r := newRig(t, func(c *Config) { c.NumSchedulers = 1 })
		prog := func(ctaID, w int) isa.Program {
			b := isa.NewBuilder()
			var addrs [isa.WarpSize]uint32
			for l := range addrs {
				addrs[l] = 0 // everyone hits line 0
			}
			for i := 0; i < 4; i++ {
				if op == isa.OpAtomicGlobal {
					b.Atomic(1, addrs, isa.FullMask)
				} else {
					b.LoadGlobalAddrs(1, addrs)
				}
				b.FAlu(2, 1)
			}
			b.Exit()
			return b.Build()
		}
		r.sm.AddCTA(specWith(8, prog), 0, 0, 0, 0, 0, r.now)
		r.runUntilDone(1, 200000)
		return r.now
	}
	atomics := run(isa.OpAtomicGlobal)
	loads := run(isa.OpLoadGlobal)
	if atomics <= loads {
		t.Fatalf("contended atomics (%d cycles) not slower than loads (%d)", atomics, loads)
	}
}

func TestActiveCycleAccounting(t *testing.T) {
	r := newRig(t, nil)
	// Idle core accumulates no active cycles.
	for i := 0; i < 100; i++ {
		r.step()
	}
	if r.sm.counters.ActiveCycles != 0 {
		t.Fatalf("idle core recorded %d active cycles", r.sm.counters.ActiveCycles)
	}
	b := isa.NewBuilder().IAlu(1, 0).Exit()
	r.sm.AddCTA(specWith(1, fixedProg(b)), 0, 0, 0, 0, 0, r.now)
	r.runUntilDone(1, 1000)
	if r.sm.counters.ActiveCycles == 0 {
		t.Fatal("busy core recorded no active cycles")
	}
}

package mem

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// tickEveryPartition is the loop the wake bounds replaced: it ticks every
// partition on every cycle of [from, to), due or not, then fires the
// buffered response hooks as TickWindow does.
func tickEveryPartition(s *System, from, to uint64) {
	for cy := from; cy < to; cy++ {
		s.now = cy
		for i, p := range s.partitions {
			p.Tick(cy, s.toPart[i], s.deliver)
		}
	}
	for _, h := range s.hooks {
		s.onResponse(h.core, h.ready)
	}
	s.hooks = s.hooks[:0]
}

// everyPartitionNextEvent is System.NextEvent computed from every
// partition's own bound instead of the wake bounds: the exact bound the wake
// bounds may undercut but never exceed.
func everyPartitionNextEvent(s *System, now uint64) uint64 {
	next := uint64(NeverEvent)
	for i, p := range s.partitions {
		next = min(next, p.NextEvent(now, s.toPart[i]))
	}
	for _, q := range s.toCore {
		next = min(next, q.NextReady())
	}
	return max(next, now)
}

// runPartitionWake drives two Systems with the same seeded traffic: sys is
// ticked through Tick and TickWindow, which run only due partitions, and its
// twin through tickEveryPartition. Fake cores send loads, stores and
// atomics through Ports and pop responses at random, in phases that flood,
// trickle or idle and that withhold pops long enough to fill the response
// FIFOs; the queues and caches are small enough for MSHR and DRAM-queue
// stalls and dirty write-backs. Every cycle the two must agree on what each
// core pops and when, the response hooks, the L2 and DRAM counters, Drained
// and NextEvent; and every wake bound must be at most its partition's own
// NextEvent. The hard cases the run reached are set in reached.
func runPartitionWake(t *testing.T, seed uint64, shape uint8, cycles int, reached map[string]bool) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Partitions = 1 + int(shape%3)
	cfg.XbarLatency = []uint64{1, 3, 12}[(shape/3)%3]
	cfg.XbarQueueCap = 2
	cfg.L2BytesPerPartition = 4 * cfg.LineBytes
	cfg.L2Ways = 2
	cfg.L2MSHREntries = 2
	cfg.L2MSHRMerges = 2
	cfg.DRAMQueueCap = 2
	cores := 1 + int(shape/9)%4

	sys, twin := NewSystem(&cfg, cores), NewSystem(&cfg, cores)
	var sysHooks, twinHooks []respHook
	sys.SetResponseHook(func(core int, ready uint64) { sysHooks = append(sysHooks, respHook{core, ready}) })
	twin.SetResponseHook(func(core int, ready uint64) { twinHooks = append(twinHooks, respHook{core, ready}) })
	sysPorts, twinPorts := make([]Sender, cores), make([]Sender, cores)
	for c := range sysPorts {
		sysPorts[c], twinPorts[c] = sys.Port(c), twin.Port(c)
	}

	rng := rand.New(rand.NewPCG(seed, uint64(shape)))
	const lines = 24 // few enough for L2 hits and MSHR merges, many enough for evictions
	var token uint32
	var now uint64
	var sendP, popP float64

	checkWake := func(at uint64, when string) {
		for i, p := range sys.partitions {
			if bound := p.NextEvent(at, sys.toPart[i]); sys.wake[i] > bound {
				t.Fatalf("seed %d shape %d cycle %d %s: wake[%d] = %d, later than the partition's NextEvent %d",
					seed, shape, at, when, i, sys.wake[i], bound)
			}
		}
	}
	compare := func(at uint64) {
		if !slices.Equal(sysHooks, twinHooks) {
			t.Fatalf("seed %d shape %d cycle %d: response hooks\n%v\nvs every-partition loop\n%v", seed, shape, at, sysHooks, twinHooks)
		}
		sysHooks, twinHooks = sysHooks[:0], twinHooks[:0]
		if a, b := sys.L2Stats(), twin.L2Stats(); a != b {
			t.Fatalf("seed %d shape %d cycle %d: L2 stats %+v, every-partition loop %+v", seed, shape, at, a, b)
		}
		if a, b := sys.DRAMStats(), twin.DRAMStats(); a != b {
			t.Fatalf("seed %d shape %d cycle %d: DRAM stats %+v, every-partition loop %+v", seed, shape, at, a, b)
		}
		if a, b := sys.Drained(), twin.Drained(); a != b {
			t.Fatalf("seed %d shape %d cycle %d: Drained %t, every-partition loop %t", seed, shape, at, a, b)
		}
		// The twin's state, read partition by partition, must equal sys's;
		// sys's own answer may be earlier (a send lowers a wake bound to the
		// request's arrival) but never later, and never finite for nothing.
		exact := everyPartitionNextEvent(twin, at)
		if own := everyPartitionNextEvent(sys, at); own != exact {
			t.Fatalf("seed %d shape %d cycle %d: partition bounds %d, every-partition loop %d", seed, shape, at, own, exact)
		}
		if got := sys.NextEvent(at); got < at || got > exact || (got == NeverEvent) != (exact == NeverEvent) {
			t.Fatalf("seed %d shape %d cycle %d: NextEvent %d, every-partition loop's bound %d", seed, shape, at, got, exact)
		}
		checkWake(at, "after tick")
		for _, q := range sys.toCore {
			if !q.CanPush() {
				reached["a full response FIFO"] = true
			}
		}
		for _, p := range sys.partitions {
			if p.dram.QueueLen() == cfg.DRAMQueueCap {
				reached["a full DRAM queue"] = true
			}
		}
	}
	pop := func(c int) {
		a, okA := sys.PopResponse(c, now)
		b, okB := twin.PopResponse(c, now)
		if okA != okB || a != b {
			t.Fatalf("seed %d shape %d cycle %d core %d: popped %+v (%t), every-partition loop %+v (%t)",
				seed, shape, now, c, a, okA, b, okB)
		}
	}

	for step := 0; step < cycles; step++ {
		if step%128 == 0 { // a new traffic phase
			sendP = []float64{0, 0.02, 0.3, 0.9}[rng.IntN(4)]
			popP = []float64{0, 0.1, 1}[rng.IntN(3)]
		}
		if sendP == 0 && rng.IntN(8) == 0 {
			// A quiet stretch the GPU's advance step would cover: no core
			// sends or pops, and the memory system runs as one window.
			k := 1 + rng.Uint64N(2*cfg.XbarLatency+2)
			if sys.NextEvent(now) < now+k {
				reached["a window with work"] = true
			}
			sys.TickWindow(now, now+k)
			tickEveryPartition(twin, now, now+k)
			now += k
			compare(now)
			continue
		}
		for c := range cores {
			for range 2 {
				if rng.Float64() >= sendP {
					break
				}
				line := uint64(rng.IntN(lines)) * uint64(cfg.LineBytes)
				ok := sysPorts[c].CanSend(line)
				if ok != twinPorts[c].CanSend(line) {
					t.Fatalf("seed %d shape %d cycle %d core %d: CanSend disagrees", seed, shape, now, c)
				}
				if !ok {
					break
				}
				req := Request{Kind: []ReqKind{ReqLoad, ReqLoad, ReqStore, ReqAtomic}[rng.IntN(4)],
					LineAddr: line, CoreID: c, Token: token & 0xFFFFFF, Born: now}
				token++
				sysPorts[c].Send(req, now)
				twinPorts[c].Send(req, now)
			}
		}
		checkWake(now, "after sends")
		sys.Tick(now)
		tickEveryPartition(twin, now, now+1)
		for c := range cores {
			for range 2 {
				if rng.Float64() < popP {
					pop(c)
				}
			}
		}
		now++
		compare(now)
	}
	// Drain: no more sends, every response popped as soon as it is ready.
	for deadline := now + 100_000; !twin.Drained(); now++ {
		if now == deadline {
			t.Fatalf("seed %d shape %d: not drained by cycle %d", seed, shape, now)
		}
		sys.Tick(now)
		tickEveryPartition(twin, now, now+1)
		for c := range cores {
			pop(c)
		}
		compare(now + 1)
	}
	compare(now)
	l2 := sys.L2Stats()
	if l2.MSHRStalls > 0 {
		reached["an L2 MSHR stall"] = true
	}
	if l2.WriteBacks > 0 {
		reached["an L2 write-back"] = true
	}
	if sys.partTicks < now*uint64(cfg.Partitions) {
		reached["skipped partition-cycles"] = true
	}
}

// TestPartitionWakeMatchesEveryCycle is the oracle for mem.System's
// partition skipping: the GPU's reference loop shares mem.System, so only a
// System whose every partition ticks every cycle can witness it. It runs
// every shape (1–3 partitions, crossbar latency 1, 3 or 12, 1–4 cores) at two
// seeds, and together the runs must reach every hard case.
func TestPartitionWakeMatchesEveryCycle(t *testing.T) {
	reached := map[string]bool{}
	for seed := range uint64(2) {
		for shape := range uint8(36) {
			runPartitionWake(t, seed, shape, 4000, reached)
		}
	}
	for _, name := range []string{"skipped partition-cycles", "a full response FIFO", "an L2 MSHR stall",
		"a full DRAM queue", "an L2 write-back", "a window with work"} {
		if !reached[name] {
			t.Errorf("no run reached %s", name)
		}
	}
}

// FuzzPartitionWake runs the differential check on fuzzer-chosen traffic
// seeds and shapes (partition count, crossbar latency, core count).
func FuzzPartitionWake(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(2), uint8(13))
	f.Add(uint64(3), uint8(35))
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8) {
		runPartitionWake(t, seed, shape, 1500, map[string]bool{})
	})
}

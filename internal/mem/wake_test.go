package mem

import (
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
)

// wakeEvent is one wake a Waker heard of: core (or partition) can act at at.
type wakeEvent struct {
	id int
	at uint64
}

// recorder is a Waker that logs the core wakes and keeps the partitions'
// wake bounds the way the GPU's calendar does: lowered by WakePartition, and
// replaced by TickPartition's answer after each tick (tickDue).
type recorder struct {
	cores []wakeEvent
	part  []uint64
	ticks uint64 // partition ticks tickDue made
}

func newRecorder(partitions int) *recorder {
	r := &recorder{part: make([]uint64, partitions)}
	for i := range r.part {
		r.part[i] = NeverEvent
	}
	return r
}

func (r *recorder) WakeCore(core int, at uint64)   { r.cores = append(r.cores, wakeEvent{core, at}) }
func (r *recorder) WakePartition(i int, at uint64) { r.part[i] = min(r.part[i], at) }

// next returns the earliest partition bound.
func (r *recorder) next() uint64 {
	next := uint64(NeverEvent)
	for _, at := range r.part {
		next = min(next, at)
	}
	return next
}

// tickDue ticks, in index order, the partitions of s due at cycle now.
func (r *recorder) tickDue(s *System, now uint64) {
	for i, at := range r.part {
		if at <= now {
			r.part[i] = s.TickPartition(i, now)
			r.ticks++
		}
	}
}

// awaiting counts the cores enrolled as waiters, over all partitions.
func awaiting(s *System) int {
	n := 0
	for _, w := range s.waiters {
		n += bits.OnesCount64(w)
	}
	return n
}

// noteRefusals records in reached which kinds of waiting head sys's
// partitions hold after a tick at cycle now, and a head held back by an
// atomic's tag-pipeline occupancy.
func noteRefusals(sys *System, now uint64, reached map[string]bool) {
	for i, p := range sys.partitions {
		in := sys.toPart[i]
		switch {
		case p.head.refusal == 0:
			if in.CanPop(now+1) && p.lookupFreeAt > now+1 {
				reached["a head behind an atomic's tag lookup"] = true
			}
		case p.head.refusal == refusalWaits|refusalMSHRStall:
			reached["a full merge slot"] = true
		case p.head.refusal == refusalWaits|refusalMiss|refusalMSHRStall:
			reached["a full L2 MSHR"] = true
		case p.head.refusal == refusalWaits|refusalMiss && in.Peek().Kind == ReqStore:
			reached["a store refused by a full DRAM queue"] = true
		case p.head.refusal == refusalWaits|refusalMiss:
			reached["a load refused by a full DRAM queue"] = true
		}
	}
}

// partitionsNext is the earliest cycle at or after now at which some
// partition's Tick does work, read from every partition's own bound:
// NeverEvent when none has any.
func partitionsNext(s *System, now uint64) uint64 {
	next := uint64(NeverEvent)
	for i, p := range s.partitions {
		next = min(next, p.NextEvent(now, s.toPart[i]))
	}
	return next
}

// nextEvent is the hierarchy's exact next event at or after now: a partition
// acting or a response reaching a core's pop point. NeverEvent means it is
// quiescent until a core sends.
func nextEvent(s *System, now uint64) uint64 {
	next := partitionsNext(s, now)
	for _, q := range s.toCore {
		next = min(next, q.NextReady())
	}
	return max(next, now)
}

// runPartitionWake drives two Systems with the same seeded traffic: sys
// ticks only its due partitions (recorder.tickDue, the GPU calendar's rule),
// which skips a head that waits on DRAM, and its twin ticks every partition
// every cycle (System.Tick, the reference path). Fake cores send loads,
// stores and atomics through Ports and pop responses at random, in phases
// that flood, trickle or idle and that withhold pops long enough to fill the
// response FIFOs. Like an LDST head, a core whose send a full request queue
// refused Awaits the partition and sends that request before any other. The
// queues and caches are small enough for every kind of refused head — DRAM
// queue full, L2 MSHR full, merge slots full — and for dirty write-backs.
// Every cycle the two must agree on what each core pops and when, the core
// wakes, the L2 counters (sys's skipped attempts settled on read), the DRAM
// counters, Drained and the exact next event; and every wake bound must be
// at most its partition's own NextEvent. The hard cases the run reached are
// set in reached.
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
	cal, twinCal := newRecorder(cfg.Partitions), newRecorder(cfg.Partitions)
	sys.SetWaker(cal)
	twin.SetWaker(twinCal)
	sysPorts, twinPorts := make([]Sender, cores), make([]Sender, cores)
	for c := range sysPorts {
		sysPorts[c], twinPorts[c] = sys.Port(c), twin.Port(c)
	}

	rng := rand.New(rand.NewPCG(seed, uint64(shape)))
	const lines = 24 // few enough for L2 hits and MSHR merges, many enough for evictions
	var token uint32
	var now uint64
	// held[c] is core c's refused request, sent before any new one.
	held := make([]*Request, cores)
	var sendP, popP float64

	checkWake := func(at uint64, when string) {
		for i, p := range sys.partitions {
			if bound := p.NextEvent(at, sys.toPart[i]); cal.part[i] > bound {
				t.Fatalf("seed %d shape %d cycle %d %s: wake bound of partition %d = %d, later than its NextEvent %d",
					seed, shape, at, when, i, cal.part[i], bound)
			}
		}
	}
	compare := func(at uint64) {
		if !slices.Equal(cal.cores, twinCal.cores) {
			t.Fatalf("seed %d shape %d cycle %d: core wakes\n%v\nvs every-partition loop\n%v", seed, shape, at, cal.cores, twinCal.cores)
		}
		cal.cores, twinCal.cores = cal.cores[:0], twinCal.cores[:0]
		if a, b := sys.L2Stats(at), twin.L2Stats(at); a != b {
			t.Fatalf("seed %d shape %d cycle %d: L2 stats %+v, every-partition loop %+v", seed, shape, at, a, b)
		}
		if a, b := sys.DRAMStats(), twin.DRAMStats(); a != b {
			t.Fatalf("seed %d shape %d cycle %d: DRAM stats %+v, every-partition loop %+v", seed, shape, at, a, b)
		}
		if a, b := sys.Drained(), twin.Drained(); a != b {
			t.Fatalf("seed %d shape %d cycle %d: Drained %t, every-partition loop %t", seed, shape, at, a, b)
		}
		// The twin's state, read partition by partition, must equal sys's;
		// sys's wake bounds may be earlier (a send lowers one to the
		// request's arrival) but never later, and never finite for nothing.
		exact := nextEvent(twin, at)
		if own := nextEvent(sys, at); own != exact {
			t.Fatalf("seed %d shape %d cycle %d: partition bounds %d, every-partition loop %d", seed, shape, at, own, exact)
		}
		parts := partitionsNext(twin, at)
		if got := cal.next(); max(got, at) > parts || (got == NeverEvent) != (parts == NeverEvent) {
			t.Fatalf("seed %d shape %d cycle %d: earliest wake bound %d, every-partition loop's partitions %d", seed, shape, at, got, parts)
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
			// A quiet stretch the GPU's calendar would cover: no core sends
			// or pops, and sys steps from one due cycle to the next.
			end := now + 1 + rng.Uint64N(2*cfg.XbarLatency+2)
			if cal.next() < end {
				reached["a quiet stretch with work"] = true
			}
			for cy := max(now, cal.next()); cy < end; cy = max(cy+1, cal.next()) {
				cal.tickDue(sys, cy)
			}
			for ; now < end; now++ {
				twin.Tick(now)
			}
			compare(now)
			continue
		}
		for c := range cores {
			for range 2 {
				if rng.Float64() >= sendP {
					break
				}
				req := held[c]
				if req == nil {
					req = &Request{Kind: []ReqKind{ReqLoad, ReqLoad, ReqStore, ReqAtomic}[rng.IntN(4)],
						LineAddr: uint64(rng.IntN(lines)) * uint64(cfg.LineBytes), CoreID: c, Token: token & 0xFFFFFF, Born: now}
					token++
				}
				ok := sysPorts[c].CanSend(req.LineAddr)
				if ok != twinPorts[c].CanSend(req.LineAddr) {
					t.Fatalf("seed %d shape %d cycle %d core %d: CanSend disagrees", seed, shape, now, c)
				}
				if !ok {
					sysPorts[c].Await(req.LineAddr)
					twinPorts[c].Await(req.LineAddr)
					held[c] = req
					break
				}
				held[c] = nil
				sysPorts[c].Send(*req, now)
				twinPorts[c].Send(*req, now)
			}
		}
		checkWake(now, "after sends")
		for i, p := range sys.partitions {
			if p.head.refusal != 0 && cal.part[i] > now {
				reached["a skipped attempt of a waiting head"] = true
			}
		}
		waiting := awaiting(sys)
		cal.tickDue(sys, now)
		twin.Tick(now)
		if awaiting(sys) < waiting {
			reached["a pop that woke an awaiting core"] = true
		}
		noteRefusals(sys, now, reached)
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
		cal.tickDue(sys, now)
		twin.Tick(now)
		for c := range cores {
			pop(c)
		}
		compare(now + 1)
	}
	compare(now)
	l2 := sys.L2Stats(now)
	if l2.MSHRStalls > 0 {
		reached["an L2 MSHR stall"] = true
	}
	if l2.WriteBacks > 0 {
		reached["an L2 write-back"] = true
	}
	if cal.ticks < now*uint64(cfg.Partitions) {
		reached["skipped partition-cycles"] = true
	}
}

// TestPartitionWakeMatchesEveryCycle is the oracle for the partitions' wake
// bounds, waiting heads included, with fake cores: a System ticked only where
// the bounds say must match one whose every partition ticks every cycle, the
// path the GPU's reference loop takes. It runs every shape (1–3 partitions, crossbar latency
// 1, 3 or 12, 1–4 cores) at two seeds, and together the runs must reach every
// hard case.
func TestPartitionWakeMatchesEveryCycle(t *testing.T) {
	reached := map[string]bool{}
	for seed := range uint64(2) {
		for shape := range uint8(36) {
			runPartitionWake(t, seed, shape, 4000, reached)
		}
	}
	for _, name := range []string{"skipped partition-cycles", "a full response FIFO", "an L2 MSHR stall",
		"a full DRAM queue", "an L2 write-back", "a quiet stretch with work",
		"a load refused by a full DRAM queue", "a full L2 MSHR", "a full merge slot",
		"a store refused by a full DRAM queue", "a head behind an atomic's tag lookup",
		"a skipped attempt of a waiting head", "a pop that woke an awaiting core"} {
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

package mem

import (
	"math/bits"
	"slices"

	"gpusched/internal/stats"
)

// System is the shared memory hierarchy below the cores: a request crossbar
// to the L2/DRAM partitions and a response crossbar back. Cores inject
// through per-core Port values (which implement Sender for their L1) and
// drain responses with PopResponse each cycle.
//
// Admission is per send: CanSend asks the target partition's request pipe for
// space at that moment, and Send pushes straight into it, so a core sees the
// sends of every core that ticked before it this cycle and a full queue
// pushes back within the cycle. That is deterministic because the GPU ticks
// its SMs in ascending core index (gpu.activitySet), and a parked SM — the
// only kind that is skipped — sends nothing. A core refused by a full queue
// may park all the same: it Awaits the partition, and the partition's next pop
// wakes the lowest-index core waiting on it (see waiters).
//
// Only due partitions run: a cycle ticks the partitions whose wake bound has
// come (see the wake field) and skips the rest, whose ticks would be no-ops.
// Tick order within a cycle is fixed: the due partitions run in index order,
// each delivering into the per-core response FIFOs, and the
// response-delivery hooks fire after every partition has ticked.
type System struct {
	cfg        *Config
	lineShift  uint // cfg.LineShift(), computed once: partOf runs on every send
	partitions []*L2Partition
	// toPart[i] carries requests to partition i (request crossbar).
	toPart []*pipe[Request]
	// wake[i] is a lower bound on the first cycle at which partitions[i].Tick
	// does work. A partition's state moves only inside its own Tick and
	// through a Send into toPart[i], so the bound is recomputed after each of
	// its ticks (L2Partition.NextEvent at the next cycle) and lowered by each
	// send to the request's ready cycle — unless the partition's head waits
	// on its DRAM channel, because a request queued behind that head cannot
	// act before it. Cycles before the bound are skipped; a waiting head's
	// skipped attempts are charged in bulk (L2Partition.refused). A partition
	// whose ready response a full core FIFO refused reports the next cycle,
	// so it keeps ticking every cycle: it waits on a pop it cannot see.
	wake []uint64
	// waiters holds, per partition, the cores whose LDST head a full toPart[i]
	// refused (Sender.Await): one bit per core, in the waitWords words from
	// waiters[i*waitWords] on. Only a pop frees space in the pipe, and the
	// slot it frees admits one send, so a pop wakes only the lowest-index
	// waiter, which leaves the set: the SMs tick in index order, so any other
	// waiter would have been refused again. A waiter therefore sends only
	// after its wake, and the set needs no other exit.
	waiters   []uint64
	waitWords int
	// partTicks counts partition Tick calls (gpu.EngineStats.PartitionTicks).
	partTicks uint64
	// toCore[c] carries responses back to core c (response crossbar), fed by
	// the partitions in (cycle, partition index) order.
	toCore []*pipe[Response]
	// deliver is the partitions' egress into the response crossbar, built once
	// at NewSystem. now is the cycle the partitions are currently ticking —
	// set before they run so the closure can stamp response ready times
	// without being rebuilt per cycle.
	deliver func(core int, resp Response) bool
	now     uint64
	// inflight counts requests anywhere in the hierarchy: +1 where a request
	// is sent and on write-back spawn, -1 where a request leaves (a response
	// popped, a store absorbed by an L2 hit, a write burst scheduled at
	// DRAM). It is what keeps Drained O(1).
	inflight int
	// onWake, when set, observes every event that can end a parked core's
	// wait, with the first cycle the core can act on it: a response pushed
	// into its return FIFO (poppable XbarLatency later), and a pop that frees
	// the request-queue slot it waits on (usable the next cycle). The GPU's
	// activity set uses it to lower a parked core's wake bound. The events are
	// buffered in hooks in the order they happen and fired by FireWakes once
	// every partition has ticked (Tick, or the caller of TickWindow), so the
	// observer never runs against a half-ticked hierarchy.
	onWake func(core int, at uint64)
	hooks  []wakeHook
}

// wakeHook is one buffered wake event: core can act on it at cycle at.
type wakeHook struct {
	core int
	at   uint64
}

// NeverEvent is the NextEvent bound meaning "no time-driven work pending".
const NeverEvent = ^uint64(0)

// NewSystem builds the memory system for numCores cores.
func NewSystem(cfg *Config, numCores int) *System { return RenewSystem(nil, cfg, numCores) }

// RenewSystem is NewSystem built in prev's arrays (prev nil: new ones): the
// partitions' tag stores, MSHR files and DRAM channels, and the crossbar
// rings, each cleared to what a new one holds. prev must belong to a machine
// whose run is over, and nothing may use it afterwards. Whatever that run
// left in flight — requests, responses, write-backs, waiters, wake events —
// is dropped, and the wake hook must be set again (SetWakeHook).
func RenewSystem(prev *System, cfg *Config, numCores int) *System {
	s := prev
	if s == nil {
		s = new(System)
	}
	waitWords := (numCores + 63) / 64
	*s = System{
		cfg:        cfg,
		lineShift:  cfg.LineShift(),
		partitions: slices.Grow(s.partitions[:0], cfg.Partitions)[:cfg.Partitions],
		toPart:     slices.Grow(s.toPart[:0], cfg.Partitions)[:cfg.Partitions],
		wake:       reuse(s.wake, cfg.Partitions),
		waitWords:  waitWords,
		waiters:    reuse(s.waiters, cfg.Partitions*waitWords),
		toCore:     slices.Grow(s.toCore[:0], numCores)[:numCores],
		hooks:      s.hooks[:0],
	}
	for i := range s.partitions {
		s.wake[i] = NeverEvent
		s.partitions[i] = renewL2Partition(s.partitions[i], cfg, i)
		s.partitions[i].bindInflight(&s.inflight)
		s.toPart[i] = renewPipe(s.toPart[i], cfg.XbarQueueCap, cfg.XbarLatency)
	}
	for c := range s.toCore {
		// The return path is sized generously relative to request queues:
		// responses must always drain or the hierarchy deadlocks.
		s.toCore[c] = renewPipe(s.toCore[c], cfg.XbarQueueCap*cfg.Partitions, cfg.XbarLatency)
	}
	// Push into the core's FIFO and buffer the wake event, reading the tick
	// cycle from s.now rather than capturing it per cycle.
	s.deliver = func(core int, resp Response) bool {
		if !s.toCore[core].Push(s.now, resp) {
			return false
		}
		if s.onWake != nil {
			s.hooks = append(s.hooks, wakeHook{core: core, at: s.now + s.cfg.XbarLatency})
		}
		return true
	}
	return s
}

// Config returns the memory configuration.
func (s *System) Config() *Config { return s.cfg }

// Port returns core coreID's injection port. Every port feeds the same
// request crossbar; admission does not depend on which core is asking.
func (s *System) Port(coreID int) Sender { return &port{sys: s, core: coreID} }

type port struct {
	sys  *System
	core int
}

// partOf is cfg.PartitionOf on the cached line shift: the index of
// lineAddr's partition.
func (s *System) partOf(lineAddr uint64) int {
	return int((lineAddr >> s.lineShift) % uint64(len(s.toPart)))
}

// CanSend reports whether the target partition's request queue has space
// right now, counting every send already made this cycle.
func (p *port) CanSend(lineAddr uint64) bool { return p.sys.toPart[p.sys.partOf(lineAddr)].CanPush() }

// Send pushes the request into the target partition's request queue and
// lowers the partition's wake bound to the cycle the request can be popped —
// unless its head waits on DRAM, which the new request cannot get past.
func (p *port) Send(req Request, now uint64) {
	s := p.sys
	i := s.partOf(req.LineAddr)
	if !s.toPart[i].Push(now, req) {
		panic("mem: Send without CanSend")
	}
	if s.partitions[i].refused == 0 {
		s.wake[i] = min(s.wake[i], now+s.cfg.XbarLatency)
	}
	s.inflight++
}

// Await enrolls the core as a waiter on lineAddr's partition (see waiters).
func (p *port) Await(lineAddr uint64) {
	s := p.sys
	s.waiters[s.partOf(lineAddr)*s.waitWords+p.core>>6] |= 1 << (p.core & 63)
}

// SetWakeHook registers the wake observer (see the onWake field). Must be
// set before the first Tick.
func (s *System) SetWakeHook(fn func(core int, at uint64)) { s.onWake = fn }

// ResponseNextReady returns the cycle core's next buffered response becomes
// poppable, NeverEvent when none is buffered. The FIFO has uniform latency,
// so no later response can become poppable earlier; later deliveries are
// covered by the response hook.
func (s *System) ResponseNextReady(core int) uint64 { return s.toCore[core].NextReady() }

// PopResponse returns the next ready response for coreID, if any.
func (s *System) PopResponse(coreID int, now uint64) (Response, bool) {
	q := s.toCore[coreID]
	if !q.CanPop(now) {
		return Response{}, false
	}
	s.inflight--
	return q.Pop(), true
}

// Tick advances the whole hierarchy one cycle: the due partitions in index
// order, then the wake hooks.
func (s *System) Tick(now uint64) {
	s.TickWindow(now, now+1)
	s.FireWakes()
}

// TickWindow advances the hierarchy through the cycles of [from, to) — the GPU
// advance step's memory-only window; a window of one cycle is Tick less the
// wake hooks. Only due partitions run: a cycle ticks, in index order, each
// partition whose wake bound has come, and the loop jumps from one due cycle
// to the next. The caller must guarantee no core ticks (and so nothing is
// sent or popped) inside the window. The window ends early, after the first
// cycle in which a partition pops a request some core waits on: the woken
// core can send in the next cycle, and the window must not run past it. It
// returns the cycle it ended at, to or earlier. The wake events it buffers,
// cycle-major in partition order, are fired by the caller's FireWakes once its
// clock stands at the window's last cycle.
func (s *System) TickWindow(from, to uint64) uint64 {
	next := s.minWake()
	for cy := max(from, next); cy < to; cy = max(cy+1, next) {
		s.now = cy
		next = NeverEvent
		woke := false
		for i := range s.partitions {
			if s.wake[i] <= cy {
				woke = s.tickPartition(i, cy) || woke
				s.wake[i] = s.partitions[i].NextEvent(cy+1, s.toPart[i])
			}
			next = min(next, s.wake[i])
		}
		if woke {
			return cy + 1
		}
	}
	return to
}

// tickPartition ticks partition i at cycle cy and reports whether it popped a
// request that some core waits on; the lowest-index waiter is then woken for
// cycle cy+1 and leaves the set.
func (s *System) tickPartition(i int, cy uint64) bool {
	s.partTicks++
	if !s.partitions[i].Tick(cy, s.toPart[i], s.deliver) {
		return false
	}
	waiters := s.waiters[i*s.waitWords : (i+1)*s.waitWords]
	for w, set := range waiters {
		if set != 0 {
			waiters[w] = set & (set - 1)
			if s.onWake != nil {
				s.hooks = append(s.hooks, wakeHook{core: w<<6 | bits.TrailingZeros64(set), at: cy + 1})
			}
			return true
		}
	}
	return false
}

// FireWakes hands the wake events buffered since the last call to the wake
// hook, in the order they happened.
func (s *System) FireWakes() {
	for _, h := range s.hooks { // empty unless onWake is set
		s.onWake(h.core, h.at)
	}
	s.hooks = s.hooks[:0]
}

// Drained reports whether no requests or responses remain anywhere in the
// hierarchy. Used by tests and quiescence checks. O(1): the in-flight counter
// tracks every request from its Send to the pop, absorption or write burst
// that retires it (drainedScan is the checkable definition it must agree
// with).
func (s *System) Drained() bool { return s.inflight == 0 }

// drainedScan is the structural definition of quiescence: no request or
// response buffered anywhere. Tests assert it stays equivalent to the
// counter-based Drained.
func (s *System) drainedScan() bool {
	for _, p := range s.partitions {
		if !p.Drained() {
			return false
		}
	}
	for _, q := range s.toPart {
		if q.Len() > 0 {
			return false
		}
	}
	for _, q := range s.toCore {
		if q.Len() > 0 {
			return false
		}
	}
	return true
}

// minWake returns the earliest partition wake bound.
func (s *System) minWake() uint64 {
	next := uint64(NeverEvent)
	for _, w := range s.wake {
		next = min(next, w)
	}
	return next
}

// PartitionTicks counts the partition Tick calls made so far: at most
// Partitions per simulated cycle, and far fewer when the hierarchy is idle.
func (s *System) PartitionTicks() uint64 { return s.partTicks }

// NextEvent returns the earliest cycle >= now at which the hierarchy can
// make progress on its own: a partition acting (its request pipe included)
// or a response reaching a core's pop point. NeverEvent means the hierarchy
// is quiescent until a core sends a new request. The partitions' share is
// their wake bounds, so it may be early — never late.
func (s *System) NextEvent(now uint64) uint64 {
	next := s.minWake()
	if next <= now {
		return now
	}
	for _, q := range s.toCore {
		if ev := q.NextReady(); ev < next {
			next = ev
		}
	}
	if next < now {
		return now
	}
	return next
}

// L2Stats sums the per-partition L2 counters through cycle t (exclusive):
// the hierarchy must have run the cycles before t, and not t. A waiting
// head's skipped attempts are charged up to t (L2Partition.statsAt).
func (s *System) L2Stats(t uint64) stats.Cache {
	var sum stats.Cache
	for _, p := range s.partitions {
		c := p.statsAt(t)
		sum.Add(&c)
	}
	return sum
}

// DRAMStats sums the per-channel DRAM counters.
func (s *System) DRAMStats() stats.DRAM {
	var sum stats.DRAM
	for _, p := range s.partitions {
		sum.Add(p.DRAMStats())
	}
	return sum
}

// Partition exposes partition i for white-box tests.
func (s *System) Partition(i int) *L2Partition { return s.partitions[i] }

// reuse returns s resized to n zero elements, in s's backing array when that
// is large enough: how a renewed component takes over its predecessor's
// arrays.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

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
// its SMs in ascending core index, and a parked SM — the only kind that is
// skipped — sends nothing. A core refused by a full queue may park all the
// same: it Awaits the partition, and the partition's next pop wakes the
// lowest-index core waiting on it (see waiters).
//
// The System keeps no schedule of its own. Tick runs every partition, and
// TickPartition runs one for a caller that keeps the partitions' wake
// bounds (the GPU's calendar); every event that lowers a bound is reported
// to the Waker as it happens.
type System struct {
	cfg        *Config
	lineShift  uint // cfg.LineShift(), computed once: partOf runs on every send
	partitions []*L2Partition
	// toPart[i] carries requests to partition i (request crossbar).
	toPart []*pipe[Request]
	// waiters holds, per partition, the cores whose LDST head a full toPart[i]
	// refused (Sender.Await): one bit per core, in the waitWords words from
	// waiters[i*waitWords] on. Only a pop frees space in the pipe, and the
	// slot it frees admits one send, so a pop wakes only the lowest-index
	// waiter, which leaves the set: the SMs tick in index order, so any other
	// waiter would have been refused again. A waiter therefore sends only
	// after its wake, and the set needs no other exit.
	waiters   []uint64
	waitWords int
	// toCore[c] carries responses back to core c (response crossbar), fed by
	// the partitions in (cycle, partition index) order.
	toCore []*pipe[Response]
	// inflight counts requests anywhere in the hierarchy: +1 where a request
	// is sent and on write-back spawn, -1 where a request leaves (a response
	// popped, a store absorbed by an L2 hit, a write burst scheduled at
	// DRAM). It is what keeps Drained O(1).
	inflight int
	// waker, when set, is told of every wake event as it happens.
	waker Waker
}

// Waker receives the events that let a parked component act, with the first
// cycle it can act on each. The GPU's calendar implements it.
type Waker interface {
	// WakeCore: a response was pushed into the core's return FIFO (poppable
	// XbarLatency later), or a pop freed the request-queue slot the core
	// waits on (usable the next cycle).
	WakeCore(core int, at uint64)
	// WakePartition: a request was sent to partition i, poppable at at. It is
	// not reported while the partition's head waits on its DRAM channel: a
	// request queued behind that head cannot act before it.
	WakePartition(i int, at uint64)
}

// NeverEvent is the NextEvent bound meaning "no time-driven work pending".
const NeverEvent = ^uint64(0)

// NewSystem builds the memory system for numCores cores.
func NewSystem(cfg *Config, numCores int) *System { return RenewSystem(nil, cfg, numCores) }

// RenewSystem is NewSystem built in prev's arrays (prev nil: new ones): the
// partitions' tag stores, MSHR files and DRAM channels, and the crossbar
// rings, each cleared to what a new one holds. prev must belong to a machine
// whose run is over, and nothing may use it afterwards. Whatever that run
// left in flight — requests, responses, write-backs, waiters —
// is dropped, and the Waker must be set again (SetWaker).
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
		waitWords:  waitWords,
		waiters:    reuse(s.waiters, cfg.Partitions*waitWords),
		toCore:     slices.Grow(s.toCore[:0], numCores)[:numCores],
	}
	for i := range s.partitions {
		s.partitions[i] = renewL2Partition(s.partitions[i], cfg, i)
		s.partitions[i].bindInflight(&s.inflight)
		s.toPart[i] = renewPipe(s.toPart[i], cfg.XbarQueueCap, cfg.XbarLatency)
	}
	for c := range s.toCore {
		// The return path is sized generously relative to request queues:
		// responses must always drain or the hierarchy deadlocks.
		s.toCore[c] = renewPipe(s.toCore[c], cfg.XbarQueueCap*cfg.Partitions, cfg.XbarLatency)
	}
	return s
}

// deliver is the partitions' egress into the response crossbar: it pushes
// resp into core's return FIFO at cycle now and wakes the core for the cycle
// the response becomes poppable. It reports false when the FIFO is full.
func (s *System) deliver(core int, resp Response, now uint64) bool {
	if !s.toCore[core].Push(now, resp) {
		return false
	}
	if s.waker != nil {
		s.waker.WakeCore(core, now+s.cfg.XbarLatency)
	}
	return true
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
// wakes the partition for the cycle the request can be popped — unless its
// head waits on DRAM, which the new request cannot get past.
func (p *port) Send(req Request, now uint64) {
	s := p.sys
	i := s.partOf(req.LineAddr)
	if !s.toPart[i].Push(now, req) {
		panic("mem: Send without CanSend")
	}
	if s.waker != nil && s.partitions[i].head.refusal == 0 {
		s.waker.WakePartition(i, now+s.cfg.XbarLatency)
	}
	s.inflight++
}

// Await enrolls the core as a waiter on lineAddr's partition (see waiters).
func (p *port) Await(lineAddr uint64) {
	s := p.sys
	s.waiters[s.partOf(lineAddr)*s.waitWords+p.core>>6] |= 1 << (p.core & 63)
}

// SetWaker registers the wake observer (see Waker). Must be set before the
// first send.
func (s *System) SetWaker(w Waker) { s.waker = w }

// ResponseNextReady returns the cycle core's next buffered response becomes
// poppable, NeverEvent when none is buffered. The FIFO has uniform latency,
// so no later response can become poppable earlier; later deliveries are
// reported to the Waker.
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

// Tick advances the whole hierarchy one cycle the reference way: every
// partition in index order, due or not, so a waiting head is tried again on
// every cycle and its bulk charge is always zero.
func (s *System) Tick(now uint64) {
	for i := range s.partitions {
		s.tickPartition(i, now)
	}
}

// TickPartition ticks partition i at cycle now and returns its wake bound:
// the first cycle at or after now+1 at which its Tick can do work
// (L2Partition.NextEvent). The partition's state moves only inside its own
// Tick and through a Send into its request pipe, which the Waker hears of,
// so until then the bound holds. A partition whose ready response a full
// core FIFO refused reports the next cycle, so it keeps ticking every cycle:
// it waits on a pop it cannot see.
func (s *System) TickPartition(i int, now uint64) uint64 {
	s.tickPartition(i, now)
	return s.partitions[i].NextEvent(now+1, s.toPart[i])
}

// tickPartition ticks partition i at cycle now. A pop of a request that some
// core waits on wakes the lowest-index waiter for cycle now+1, and it leaves
// the set.
func (s *System) tickPartition(i int, now uint64) {
	if !s.partitions[i].Tick(now, s.toPart[i], s) {
		return
	}
	waiters := s.waiters[i*s.waitWords : (i+1)*s.waitWords]
	for w, set := range waiters {
		if set != 0 {
			waiters[w] = set & (set - 1)
			if s.waker != nil {
				s.waker.WakeCore(w<<6|bits.TrailingZeros64(set), now+1)
			}
			return
		}
	}
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

// L2Stats sums the per-partition L2 counters through cycle t (exclusive):
// the hierarchy must have run the cycles before t, and not t. Each
// partition's waiting head settles its skipped attempts up to t first.
func (s *System) L2Stats(t uint64) stats.Cache {
	var sum stats.Cache
	for _, p := range s.partitions {
		p.head.settle(&p.Stats, t)
		sum.Add(&p.Stats)
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

package mem

import "gpusched/internal/stats"

// System is the shared memory hierarchy below the cores: a request crossbar
// to the L2/DRAM partitions and a response crossbar back. Cores inject
// through per-core Port values (which implement Sender for their L1) and
// drain responses with PopResponse each cycle.
//
// Injection is *staged*: within a cycle, a port's Send appends to its core's
// private per-partition bucket and CanSend admits against the crossbar
// occupancy snapshotted at the end of the previous tick (plus the core's own
// staged requests). The partition tick then commits the staged requests into
// the request crossbar in core-index order before the partition runs. The
// staging is load-bearing even though the cycle loop is serial: the GPU
// visits its SMs in an order that depends on the run's park/wake history
// (gpu.activitySet), and a core's admission verdict depends only on the
// snapshot and its own staged requests — never on which other cores have
// already sent this cycle — so the committed state is identical whatever
// order the cores ticked in.
//
// The snapshot admits optimistically against the *committed* queue: every
// core sees the same free space f in a partition and may stage up to f
// requests there, so a commit can transiently exceed the configured capacity
// by up to (numCores-1)*f entries — as much as (numCores-1)*capacity when
// the queue started the cycle empty. The pipe absorbs the overshoot and
// CanSend reports the partition full until it drains back under the bound —
// backpressure is preserved (the overfill is bounded and cleared before new
// admissions), just assessed once per cycle instead of once per send, which
// admits one cycle's burst more than a per-send check would.
//
// Tick order within a cycle is fixed: partitions run in index order, each
// committing its cores' staged requests in core-index order immediately
// before it runs; response-delivery hooks fire after every partition has
// ticked; and a core pops its response lanes (one virtual-channel pipe per
// (partition, core) pair) by (ready cycle, partition index) — exactly the
// order a single shared FIFO fed in partition order would have produced.
type System struct {
	cfg        *Config
	partitions []*L2Partition
	// toPart[i] carries requests to partition i (request crossbar).
	toPart []*pipe[Request]
	// vc[i*numCores+c] carries responses from partition i back to core c —
	// the response crossbar as per-(partition,core) virtual channels, so a
	// core's pop never has to look past another core's responses.
	// PopResponse merges the lanes by (ready, partition index).
	vc       []*pipe[Response]
	numCores int
	// slots[c] is core c's staging area. During a cycle each core mutates
	// only its own slot; partition i drains every slot's bucket i.
	slots []coreSlot
	// deliver[i] is partition i's egress into its response lanes, built once
	// at NewSystem. now is the cycle the partitions are currently ticking —
	// set before they run so the closures can stamp response ready times
	// without being rebuilt per cycle.
	deliver []func(core int, resp Response) bool
	now     uint64
	// respCount[i] is the number of responses buffered in partition i's
	// lanes. PopResponse, ResponseNextReady and NextEvent use a zero to skip
	// the partition's lanes outright.
	respCount []int
	// snapLen[i] is toPart[i].Len() at the end of the previous tick — the
	// occupancy CanSend admits against.
	snapLen []int
	// xbarCap mirrors the request pipes' capacity clamp (see newPipe).
	xbarCap int
	// inflight counts requests anywhere in the hierarchy: +1 where a request
	// is staged and on write-back spawn, -1 where a request leaves (a
	// response popped, a store absorbed by an L2 hit, a write burst scheduled
	// at DRAM). It is what keeps Drained O(1).
	inflight int
	// onResponse, when set, observes every response committed into a core's
	// return lane, with the cycle it becomes poppable. The GPU's activity set
	// uses it to lower a parked core's wake bound — a response headed for a
	// sleeping SM must wake it no later than the cycle it can be popped. The
	// events are buffered in hooks in delivery order and fired once every
	// partition has ticked (the end of Tick or TickWindow), so the observer
	// never runs against a half-ticked hierarchy. Partitions tick cycle-major
	// in index order, so the buffer is already in (ready, partition) order.
	onResponse func(core int, ready uint64)
	hooks      []respHook
}

// coreSlot is one core's cycle-private staging area.
type coreSlot struct {
	// staged[i] holds the requests sent to partition i this cycle, in send
	// order. Bucketing by destination is what lets partition i commit its
	// ingress without scanning other partitions' traffic.
	staged [][]Request
	// stagedTotal counts the core's staged requests across every bucket,
	// reset once every partition has ticked; the partition ticks read it to
	// skip cores that staged nothing — the common case — without touching
	// each bucket.
	stagedTotal int
}

// respHook is one buffered response-delivery event: core's lane has a
// response poppable at ready.
type respHook struct {
	core  int
	ready uint64
}

// NeverEvent is the NextEvent bound meaning "no time-driven work pending".
const NeverEvent = ^uint64(0)

// NewSystem builds the memory system for numCores cores.
func NewSystem(cfg *Config, numCores int) *System {
	s := &System{cfg: cfg, numCores: numCores}
	s.partitions = make([]*L2Partition, cfg.Partitions)
	s.toPart = make([]*pipe[Request], cfg.Partitions)
	s.deliver = make([]func(core int, resp Response) bool, cfg.Partitions)
	s.vc = make([]*pipe[Response], cfg.Partitions*numCores)
	for i := range s.vc {
		// Return lanes are sized generously relative to request queues:
		// responses must always drain or the hierarchy deadlocks.
		s.vc[i] = newPipe[Response](cfg.XbarQueueCap*cfg.Partitions, cfg.XbarLatency)
	}
	for i := range s.partitions {
		s.partitions[i] = NewL2Partition(cfg, i)
		s.partitions[i].bindInflight(&s.inflight)
		s.toPart[i] = newPipe[Request](cfg.XbarQueueCap, cfg.XbarLatency)
		part, base := i, i*numCores
		// Partition i's egress: push into the (partition, core) lane and
		// buffer the wake event, reading the tick cycle from s.now rather
		// than capturing it per cycle.
		s.deliver[i] = func(core int, resp Response) bool {
			if !s.vc[base+core].Push(s.now, resp) {
				return false
			}
			s.respCount[part]++
			if s.onResponse != nil {
				s.hooks = append(s.hooks, respHook{core: core, ready: s.now + s.cfg.XbarLatency})
			}
			return true
		}
	}
	s.slots = make([]coreSlot, numCores)
	for c := range s.slots {
		s.slots[c].staged = make([][]Request, cfg.Partitions)
	}
	s.respCount = make([]int, cfg.Partitions)
	s.snapLen = make([]int, cfg.Partitions)
	s.xbarCap = s.toPart[0].cap
	return s
}

// Config returns the memory configuration.
func (s *System) Config() *Config { return s.cfg }

// Port returns core coreID's injection port.
func (s *System) Port(coreID int) Sender { return &port{sys: s, core: coreID} }

type port struct {
	sys  *System
	core int
}

// CanSend admits against the start-of-cycle snapshot plus this core's own
// staged requests — deliberately blind to other cores' same-cycle sends, so
// the verdict is identical whatever order the cores tick in.
func (p *port) CanSend(lineAddr uint64) bool {
	s := p.sys
	tgt := s.cfg.PartitionOf(lineAddr)
	return s.snapLen[tgt]+len(s.slots[p.core].staged[tgt]) < s.xbarCap
}

// Send stages the request in the core's private bucket for the target
// partition; that partition's next tick commits it.
func (p *port) Send(req Request, now uint64) {
	s := p.sys
	tgt := s.cfg.PartitionOf(req.LineAddr)
	sl := &s.slots[p.core]
	if s.snapLen[tgt]+len(sl.staged[tgt]) >= s.xbarCap {
		panic("mem: Send without CanSend")
	}
	sl.staged[tgt] = append(sl.staged[tgt], req)
	sl.stagedTotal++
	s.inflight++
}

// SetResponseHook registers the response-delivery observer (see the
// onResponse field). Must be set before the first Tick.
func (s *System) SetResponseHook(fn func(core int, ready uint64)) { s.onResponse = fn }

// ResponseNextReady returns the cycle core's next buffered response becomes
// poppable, NeverEvent when none is buffered. Each lane is FIFO with uniform
// latency, so no later response can become poppable earlier; later
// deliveries are covered by the response hook.
func (s *System) ResponseNextReady(core int) uint64 {
	next := uint64(NeverEvent)
	for p := 0; p < len(s.partitions); p++ {
		if s.respCount[p] == 0 {
			continue
		}
		if ev := s.vc[p*s.numCores+core].NextReady(); ev < next {
			next = ev
		}
	}
	return next
}

// PopResponse returns the next ready response for coreID, if any: the ready
// lane head with the earliest ready cycle, ties to the lowest partition
// index — the exact order a single shared FIFO fed in partition order would
// pop, so the lane split is invisible to the cores.
func (s *System) PopResponse(coreID int, now uint64) (Response, bool) {
	best := -1
	var bestReady uint64
	for p := 0; p < len(s.partitions); p++ {
		if s.respCount[p] == 0 {
			continue
		}
		q := s.vc[p*s.numCores+coreID]
		if r := q.NextReady(); r <= now && (best < 0 || r < bestReady) {
			best, bestReady = p, r
		}
	}
	if best < 0 {
		return Response{}, false
	}
	s.inflight--
	s.respCount[best]--
	return s.vc[best*s.numCores+coreID].Pop(), true
}

// Tick advances the whole hierarchy one cycle: every partition in index
// order, each committing its cores' staged ingress first, then the response
// hooks and the admission snapshot.
func (s *System) Tick(now uint64) { s.TickWindow(now, now+1) }

// TickWindow advances the hierarchy through every cycle in [from, to) in one
// call — the quiet-window batch path; a window of one cycle is exactly Tick.
// The caller must guarantee no core ticks (and so nothing is staged or
// popped) inside the window; ingress is therefore only scanned at the first
// cycle. The loop is cycle-major, so the buffered response hooks come out in
// (ready, partition) order — the order per-cycle ticks would have fired them
// in — and fire once, at the window's end.
//
//gpulint:hotpath
func (s *System) TickWindow(from, to uint64) {
	for cy := from; cy < to; cy++ {
		s.now = cy
		for i := range s.partitions {
			s.tickPartition(i, cy, cy == from)
		}
	}
	for _, h := range s.hooks { // empty unless onResponse is set
		s.onResponse(h.core, h.ready)
	}
	s.hooks = s.hooks[:0]
	for c := range s.slots {
		// Every partition ticked since the cores last staged, so every
		// bucket has drained; the totals restart from zero.
		s.slots[c].stagedTotal = 0
	}
	for i, q := range s.toPart {
		s.snapLen[i] = q.Len()
	}
}

// tickPartition is partition i's ingress commit and tick. The ingress commit
// drains every core's bucket i into the request crossbar in core-index order
// with the same ready cycle a direct send would have had; running it
// immediately before partition i's tick is indistinguishable from committing
// all partitions up front, because no partition reads another partition's
// pipe. forcePush may overfill the pipe past its capacity (see the System
// comment): the cores were all admitted against the same snapshot.
func (s *System) tickPartition(i int, now uint64, ingress bool) {
	if ingress {
		q := s.toPart[i]
		for c := range s.slots {
			if s.slots[c].stagedTotal == 0 {
				continue
			}
			b := s.slots[c].staged[i]
			if len(b) == 0 {
				continue
			}
			for j := range b {
				q.forcePush(now, b[j])
			}
			s.slots[c].staged[i] = b[:0]
		}
	}
	s.partitions[i].Tick(now, s.toPart[i], s.deliver[i])
}

// StagedEmpty reports whether no core has a staged, uncommitted request —
// a precondition the GPU checks before entering a batched quiet window.
func (s *System) StagedEmpty() bool {
	for c := range s.slots {
		if s.slots[c].stagedTotal > 0 {
			return false
		}
	}
	return true
}

// Drained reports whether no requests or responses remain anywhere in the
// hierarchy — staged-but-uncommitted sends count as in flight. Used by tests
// and quiescence checks. O(1): the in-flight counter tracks every request
// from the Send that stages it to the pop, absorption or write burst that
// retires it (drainedScan is the checkable definition it must agree with).
func (s *System) Drained(now uint64) bool { return s.inflight == 0 }

// drainedScan is the structural definition of quiescence: no request or
// response buffered (or staged) anywhere. Tests assert it stays equivalent
// to the counter-based Drained.
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
	for _, q := range s.vc {
		if q.Len() > 0 {
			return false
		}
	}
	for c := range s.slots {
		for p := range s.slots[c].staged {
			if len(s.slots[c].staged[p]) > 0 {
				return false
			}
		}
	}
	return true
}

// NextEvent returns the earliest cycle >= now at which the hierarchy can
// make progress on its own: a staged request committing at the next tick, a
// partition acting (its request pipe included) or a response reaching a
// core's pop point. NeverEvent means the hierarchy is quiescent until a core
// sends a new request.
func (s *System) NextEvent(now uint64) uint64 {
	for c := range s.slots {
		if s.slots[c].stagedTotal > 0 {
			return now
		}
	}
	next := uint64(NeverEvent)
	for i, p := range s.partitions {
		if ev := p.NextEvent(now, s.toPart[i]); ev < next {
			next = ev
		}
		if next <= now {
			return now
		}
	}
	for i := range s.partitions {
		if s.respCount[i] == 0 {
			continue
		}
		base := i * s.numCores
		for c := 0; c < s.numCores; c++ {
			if ev := s.vc[base+c].NextReady(); ev < next {
				next = ev
			}
			if next <= now {
				return now
			}
		}
	}
	return next
}

// L2Stats sums the per-partition L2 counters.
func (s *System) L2Stats() stats.Cache {
	var sum stats.Cache
	for _, p := range s.partitions {
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

// Partition exposes partition i for white-box tests.
func (s *System) Partition(i int) *L2Partition { return s.partitions[i] }

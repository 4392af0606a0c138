package mem

import "gpusched/internal/stats"

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
// only kind that is skipped — sends nothing.
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
	// send to the request's ready cycle. Cycles before it are skipped.
	// Partitions whose head stalls structurally, whose write-backs wait for
	// DRAM space or whose response a full core FIFO refused report the next
	// cycle, so they keep ticking every cycle: those ticks mutate stats or
	// wait on a pop the partition cannot see.
	wake []uint64
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
	// onResponse, when set, observes every response pushed into a core's
	// return FIFO, with the cycle it becomes poppable. The GPU's activity set
	// uses it to lower a parked core's wake bound — a response headed for a
	// sleeping SM must wake it no later than the cycle it can be popped. The
	// events are buffered in hooks in delivery order and fired once every
	// partition has ticked (the end of Tick or TickWindow), so the observer
	// never runs against a half-ticked hierarchy. Partitions tick cycle-major
	// in index order, so the buffer is already in (ready, partition) order.
	onResponse func(core int, ready uint64)
	hooks      []respHook
}

// respHook is one buffered response-delivery event: core's FIFO has a
// response poppable at ready.
type respHook struct {
	core  int
	ready uint64
}

// NeverEvent is the NextEvent bound meaning "no time-driven work pending".
const NeverEvent = ^uint64(0)

// NewSystem builds the memory system for numCores cores.
func NewSystem(cfg *Config, numCores int) *System {
	s := &System{cfg: cfg, lineShift: cfg.LineShift()}
	s.partitions = make([]*L2Partition, cfg.Partitions)
	s.toPart = make([]*pipe[Request], cfg.Partitions)
	s.wake = make([]uint64, cfg.Partitions)
	for i := range s.partitions {
		s.wake[i] = NeverEvent
		s.partitions[i] = NewL2Partition(cfg, i)
		s.partitions[i].bindInflight(&s.inflight)
		s.toPart[i] = newPipe[Request](cfg.XbarQueueCap, cfg.XbarLatency)
	}
	s.toCore = make([]*pipe[Response], numCores)
	for c := range s.toCore {
		// The return path is sized generously relative to request queues:
		// responses must always drain or the hierarchy deadlocks.
		s.toCore[c] = newPipe[Response](cfg.XbarQueueCap*cfg.Partitions, cfg.XbarLatency)
	}
	// Push into the core's FIFO and buffer the wake event, reading the tick
	// cycle from s.now rather than capturing it per cycle.
	s.deliver = func(core int, resp Response) bool {
		if !s.toCore[core].Push(s.now, resp) {
			return false
		}
		if s.onResponse != nil {
			s.hooks = append(s.hooks, respHook{core: core, ready: s.now + s.cfg.XbarLatency})
		}
		return true
	}
	return s
}

// Config returns the memory configuration.
func (s *System) Config() *Config { return s.cfg }

// Port returns core coreID's injection port. Every port feeds the same
// request crossbar; admission does not depend on which core is asking.
func (s *System) Port(coreID int) Sender { return &port{sys: s} }

type port struct{ sys *System }

// partOf is cfg.PartitionOf on the cached line shift: the index of
// lineAddr's partition.
func (s *System) partOf(lineAddr uint64) int {
	return int((lineAddr >> s.lineShift) % uint64(len(s.toPart)))
}

// CanSend reports whether the target partition's request queue has space
// right now, counting every send already made this cycle.
func (p *port) CanSend(lineAddr uint64) bool { return p.sys.toPart[p.sys.partOf(lineAddr)].CanPush() }

// Send pushes the request into the target partition's request queue and
// lowers the partition's wake bound to the cycle the request can be popped.
func (p *port) Send(req Request, now uint64) {
	s := p.sys
	i := s.partOf(req.LineAddr)
	if !s.toPart[i].Push(now, req) {
		panic("mem: Send without CanSend")
	}
	s.wake[i] = min(s.wake[i], now+s.cfg.XbarLatency)
	s.inflight++
}

// SetResponseHook registers the response-delivery observer (see the
// onResponse field). Must be set before the first Tick.
func (s *System) SetResponseHook(fn func(core int, ready uint64)) { s.onResponse = fn }

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
// order, then the response hooks.
func (s *System) Tick(now uint64) { s.TickWindow(now, now+1) }

// TickWindow advances the hierarchy through every cycle in [from, to) in one
// call — the GPU advance step's memory-only window; a window of one cycle is
// exactly Tick. Only due partitions run: a cycle ticks, in index order, each
// partition whose wake bound has come, and the loop jumps from one due cycle
// to the next. The caller must guarantee no core ticks (and so nothing is
// sent or popped) inside the window. The loop is cycle-major, so the buffered
// response hooks come out in (ready, partition) order — the order per-cycle
// ticks of every partition would have fired them in — and fire once, at the
// window's end.
func (s *System) TickWindow(from, to uint64) {
	next := s.minWake()
	for cy := max(from, next); cy < to; cy = max(cy+1, next) {
		s.now = cy
		next = NeverEvent
		for i, p := range s.partitions {
			if s.wake[i] <= cy {
				p.Tick(cy, s.toPart[i], s.deliver)
				s.partTicks++
				s.wake[i] = p.NextEvent(cy+1, s.toPart[i])
			}
			next = min(next, s.wake[i])
		}
	}
	for _, h := range s.hooks { // empty unless onResponse is set
		s.onResponse(h.core, h.ready)
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

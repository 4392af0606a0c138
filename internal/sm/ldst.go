package sm

import (
	"gpusched/internal/isa"
	"gpusched/internal/mem"
)

// pendingLoad tracks one outstanding load/atomic instruction: how many line
// transactions are still in flight and which register to release when the
// last returns. Tokens traveling through the memory system index this table.
type pendingLoad struct {
	warp      *Warp
	issued    uint64
	remaining int32
	dst       isa.Reg
	atomic    bool
	inUse     bool
}

// ldstEntry is one memory instruction queued at the LDST unit.
type ldstEntry struct {
	warp *Warp
	// lines are the coalesced global transactions (nil for shared ops), in
	// a buffer of the unit's linePool.
	lines []uint64
	next  int
	// finishAt is the shared-op completion cycle (0 = not started).
	finishAt uint64
	// token indexes the pendingLoad table (loads/atomics only).
	token    uint32
	wi       isa.Instr
	hasToken bool
}

// hitEvent releases one transaction of a pending load after the L1 hit
// latency.
type hitEvent struct {
	at    uint64
	token uint32
}

// ldstUnit is the SM's memory pipeline: a bounded in-order queue of memory
// instructions. The head instruction issues one line transaction per cycle
// into the L1 (global) or occupies the unit for its conflict passes
// (shared). Divergent accesses therefore occupy the unit proportionally to
// their transaction count — the memory-divergence cost.
type ldstUnit struct {
	sm *SM
	// queue is a ring of cap entries: qLen of them from qHead on, wrapping
	// around. canAccept keeps it from overflowing. Like hits it is allocated
	// on first use, so an SM that never runs a memory instruction (most of
	// a machine running one small kernel) allocates neither.
	queue       []ldstEntry
	cap         int
	qHead, qLen int

	table []pendingLoad
	free  []uint32

	// hits is a ring of pending hit events, hLen of them from hHead on, sized
	// once to hitRingSize.
	hits        []hitEvent
	hHead, hLen int

	// linePool recycles the coalesced-line buffers of retired queue entries
	// so a long run allocates O(queue cap) line slices total instead of one
	// per global memory instruction. Entries own their buffer from accept
	// to popHead.
	linePool [][]uint64

	// addrBuf is the one buffer the unit reads every global op's addresses
	// into, from the op's program when it accepts it (Warp.lanes), and
	// coalesces at once; nothing else in the core reads an address. It
	// lives here rather than in SM, where it took SM to a 640-byte heap
	// slot.
	addrBuf isa.WarpInstr

	// freeGen advances whenever a queue slot or a pending-load token frees —
	// the only ways canAccept turns true — so a stall certificate that rests
	// on LDST back-pressure lapses exactly then.
	freeGen uint64
}

// renewLDSTUnit builds s's LDST unit in u's rings, pending-load table and
// line buffers (u nil: a new unit), empty: the instructions and loads a
// finished run left in flight are dropped.
func renewLDSTUnit(u *ldstUnit, s *SM) *ldstUnit {
	if u == nil {
		u = new(ldstUnit)
	}
	queue, hits := u.queue, u.hits
	if len(queue) < s.cfg.LDSTQueueCap {
		queue = nil // allocated on first use
	}
	if len(hits) != hitRingSize(s) {
		hits = nil
	}
	clear(queue)
	*u = ldstUnit{
		sm:       s,
		cap:      s.cfg.LDSTQueueCap,
		queue:    queue,
		hits:     hits,
		table:    reuse(u.table, s.cfg.MaxPendingLoads),
		free:     reuse(u.free, s.cfg.MaxPendingLoads)[:0],
		linePool: u.linePool,
	}
	for i := s.cfg.MaxPendingLoads - 1; i >= 0; i-- {
		u.free = append(u.free, uint32(i))
	}
	return u
}

// hitRingSize bounds the pending hit events: one is pushed per tick at most,
// and none lives past the longer of the two hit latencies.
func hitRingSize(s *SM) int { return int(max(s.memCfg.L1HitLatency, s.cfg.SharedLatency)) + 1 }

// canAccept reports whether a new memory instruction can enter the queue,
// and — for register-writing ops — whether a pending-table slot exists.
func (u *ldstUnit) canAccept(writesReg bool) bool {
	if u.qLen >= u.cap {
		return false
	}
	if writesReg && len(u.free) == 0 {
		return false
	}
	return true
}

// takeLines pops a recycled line buffer (nil when the pool is empty — the
// first few instructions grow fresh buffers that then circulate forever).
func (u *ldstUnit) takeLines() []uint64 {
	n := len(u.linePool)
	if n == 0 {
		return nil
	}
	s := u.linePool[n-1]
	u.linePool[n-1] = nil
	u.linePool = u.linePool[:n-1]
	return s[:0]
}

// ring returns index i of a ring of n slots whose head is at h (i < n).
func ring(h, i, n int) int {
	if h += i; h >= n {
		h -= n
	}
	return h
}

// accept enqueues the issued memory instruction wi, w's current one.
// Caller checked canAccept. It is on the per-issue hot path: a global op's
// lanes are coalesced into a buffer from the unit's pool and the entry is
// written in place into the queue ring, so steady state allocates nothing.
func (u *ldstUnit) accept(w *Warp, wi *isa.Instr, now uint64) {
	if u.queue == nil {
		u.queue = make([]ldstEntry, u.cap)
	}
	e := &u.queue[ring(u.qHead, u.qLen, u.cap)]
	u.qLen++
	*e = ldstEntry{warp: w, wi: *wi}
	w.cta.memRefs++ // queue entry holds the warp until popHead
	if wi.Op.IsGlobal() {
		e.lines = mem.Coalesce(u.takeLines(), w.lanes(&u.addrBuf), w.cta.AddrBase, u.sm.memCfg.LineBytes)
	}
	if wi.Op.WritesRegister() {
		tok := u.free[len(u.free)-1]
		u.free = u.free[:len(u.free)-1]
		n := len(e.lines)
		if !wi.Op.IsGlobal() {
			n = 1 // shared load: one logical completion
		}
		u.table[tok] = pendingLoad{
			warp: w, dst: wi.Dst, remaining: int32(n), issued: now,
			atomic: wi.Op == isa.OpAtomicGlobal, inUse: true,
		}
		e.token = tok
		e.hasToken = true
		w.cta.memRefs++ // token holds the warp until the last transaction
		// The scoreboard holds the destination until the last
		// transaction returns.
		if wi.Dst != 0 {
			w.setReady(wi.Dst, notReady)
		}
	}
}

// pushHit schedules the release of one transaction of token at cycle at.
func (u *ldstUnit) pushHit(at uint64, token uint32) {
	if u.hLen == len(u.hits) {
		if u.hits != nil {
			panic("sm: hit-event ring overflow")
		}
		u.hits = make([]hitEvent, hitRingSize(u.sm))
	}
	u.hits[ring(u.hHead, u.hLen, len(u.hits))] = hitEvent{at: at, token: token}
	u.hLen++
}

// tick advances the unit one cycle: ripe hit events first, then the head
// instruction.
func (u *ldstUnit) tick(now uint64) {
	for u.hLen > 0 && u.hits[u.hHead].at <= now {
		tok := u.hits[u.hHead].token
		u.hHead = ring(u.hHead, 1, len(u.hits))
		u.hLen--
		u.completeOne(tok, now)
	}
	if u.qLen == 0 {
		return
	}
	e := &u.queue[u.qHead]
	switch {
	case !e.wi.Op.IsGlobal():
		u.tickShared(e, now)
	default:
		u.tickGlobal(e, now)
	}
}

func (u *ldstUnit) tickShared(e *ldstEntry, now uint64) {
	if e.finishAt == 0 {
		passes := uint64(e.wi.BankConflict)
		if passes == 0 {
			passes = 1
		}
		u.sm.counters.SharedAccesses++
		u.sm.counters.SharedConflictPasses += passes
		e.finishAt = now + passes
	}
	if now < e.finishAt {
		return
	}
	if e.hasToken {
		// Result arrives after the scratchpad latency.
		u.pushHit(now+u.sm.cfg.SharedLatency, e.token)
	}
	u.popHead()
}

// tickGlobal sends the head instruction's next line transaction — the
// per-cycle step of the LDST issue path.
func (u *ldstUnit) tickGlobal(e *ldstEntry, now uint64) {
	if e.next >= len(e.lines) {
		// Mask-empty access: nothing to send.
		if e.hasToken && len(e.lines) == 0 {
			u.completeOne(e.token, now)
		}
		u.popHead()
		return
	}
	line := e.lines[e.next]
	var res mem.AccessResult
	switch e.wi.Op {
	case isa.OpLoadGlobal:
		res = u.sm.l1.Load(line, e.token, now)
		if res == mem.AccessHit {
			u.pushHit(now+u.sm.memCfg.L1HitLatency, e.token)
		}
	case isa.OpStoreGlobal:
		res = u.sm.l1.Store(line, now)
	case isa.OpAtomicGlobal:
		res = u.sm.l1.Atomic(line, e.token, now)
	}
	if res == mem.AccessStall {
		// The head waits (l1.Waiting) and tries the same transaction again on
		// the next tick. A parked SM is not ticked: a read settles each parked
		// cycle as one such attempt, SyncTo the StallLDSTFull and the L1 its
		// own counters.
		u.sm.counters.StallLDSTFull++
		return
	}
	e.next++
	if e.next >= len(e.lines) {
		u.popHead()
	}
}

func (u *ldstUnit) popHead() {
	u.freeGen++
	e := &u.queue[u.qHead]
	u.unref(e.warp.cta)
	if e.lines != nil {
		// Bounded by the queue cap: at most LDSTQueueCap buffers are recycled.
		u.linePool = append(u.linePool, e.lines)
	}
	e.warp, e.lines = nil, nil
	u.qHead = ring(u.qHead, 1, u.cap)
	u.qLen--
}

// unref drops one of cta's memory references; the last one hands a
// recycle-armed CTA to the core's pool (see SM.Recycle).
func (u *ldstUnit) unref(cta *CTA) {
	cta.memRefs--
	if cta.recycleArmed && cta.memRefs == 0 {
		cta.recycleArmed = false
		u.sm.ctaPool = append(u.sm.ctaPool, cta)
	}
}

// onResponse routes a memory-system response: the L1 handles fills/merges
// and returns every token whose transaction completed.
func (u *ldstUnit) onResponse(resp mem.Response, now uint64) {
	tok := resp.Token
	atomic := false
	if int(tok) < len(u.table) && u.table[tok].inUse {
		atomic = u.table[tok].atomic
	}
	for _, t := range u.sm.l1.OnResponse(resp, atomic) {
		u.completeOne(t, now)
	}
}

// completeOne retires one transaction of pending load t; the last one
// releases the destination register.
func (u *ldstUnit) completeOne(t uint32, now uint64) {
	p := &u.table[t]
	if !p.inUse {
		panic("sm: completion for free pending-load slot")
	}
	p.remaining--
	if p.remaining > 0 {
		return
	}
	if p.dst != 0 {
		p.warp.setReady(p.dst, now)
		p.warp.sched.clearStall(p.warp)
	}
	u.unref(p.warp.cta)
	u.sm.memLatencySum += now - p.issued
	u.sm.memLoadsDone++
	p.inUse = false
	u.free = append(u.free, t)
	u.freeGen++
}

// busy reports whether any instruction or transaction is still in flight.
func (u *ldstUnit) busy() bool {
	return u.qLen > 0 || u.hLen > 0 || len(u.free) < len(u.table)
}

// nextEvent returns the earliest cycle >= now at which tick does work on
// its own: a ripe hit event (the hit list is pop-gated by its head, so the
// head's time is the exact bound) or the queued head instruction. A global
// head sends its next transaction at once, unless the L1 refused it: then
// it waits on a response (the MSHR refused it) or on a pop at its partition
// (the request queue was full), and both wake the SM through the memory
// system's Waker, so it adds no bound; each cycle it waits repeats the
// refused attempt's counters, which a read settles (SM.SyncTo the core's,
// mem.L1 its own), and so does the head's next attempt. A shared op
// mid-flight sleeps until finishAt. Transactions parked in the pending table
// wake only on memory responses, which the system's own bound covers.
func (u *ldstUnit) nextEvent(now uint64) uint64 {
	next := uint64(NeverEvent)
	if u.hLen > 0 {
		if at := u.hits[u.hHead].at; at > now {
			next = at
		} else {
			return now
		}
	}
	if u.qLen > 0 {
		e := &u.queue[u.qHead]
		switch {
		case e.wi.Op.IsGlobal():
			if !u.sm.l1.Waiting() {
				return now
			}
		case e.finishAt > now:
			next = min(next, e.finishAt)
		default:
			return now
		}
	}
	return next
}

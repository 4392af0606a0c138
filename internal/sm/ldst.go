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
	dst       isa.Reg
	remaining int
	atomic    bool
	issued    uint64
	inUse     bool
}

// ldstEntry is one memory instruction queued at the LDST unit.
type ldstEntry struct {
	warp *Warp
	wi   isa.WarpInstr
	// lines are the coalesced global transactions (nil for shared ops).
	lines []uint64
	next  int
	// token indexes the pendingLoad table (loads/atomics only).
	token    uint32
	hasToken bool
	// finishAt is the shared-op completion cycle (0 = not started).
	finishAt uint64
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
	sm    *SM
	queue []ldstEntry
	cap   int

	table []pendingLoad
	free  []uint32

	hits []hitEvent

	// linePool recycles the coalesced-line buffers of retired queue entries
	// so a long run allocates O(queue cap) line slices total instead of one
	// per global memory instruction. Entries own their buffer from accept
	// to popHead.
	linePool [][]uint64

	// freeGen advances whenever a queue slot or a pending-load token frees —
	// the only ways canAccept turns true — so a stall certificate that rests
	// on LDST back-pressure lapses exactly then.
	freeGen uint64
}

func newLDSTUnit(s *SM) *ldstUnit {
	u := &ldstUnit{
		sm:    s,
		cap:   s.cfg.LDSTQueueCap,
		table: make([]pendingLoad, s.cfg.MaxPendingLoads),
		free:  make([]uint32, 0, s.cfg.MaxPendingLoads),
	}
	for i := s.cfg.MaxPendingLoads - 1; i >= 0; i-- {
		u.free = append(u.free, uint32(i))
	}
	return u
}

// canAccept reports whether a new memory instruction can enter the queue,
// and — for register-writing ops — whether a pending-table slot exists.
func (u *ldstUnit) canAccept(writesReg bool) bool {
	if len(u.queue) >= u.cap {
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

// accept enqueues the issued memory instruction. Caller checked canAccept.
// It is on the per-issue hot path: the coalesced-line buffer comes from the
// unit's pool, and the queue/table appends below are bounded by
// LDSTQueueCap/MaxPendingLoads, so steady state allocates nothing.
//
//gpulint:hotpath
func (u *ldstUnit) accept(w *Warp, wi *isa.WarpInstr, now uint64) {
	e := ldstEntry{warp: w, wi: *wi}
	w.cta.memRefs++ // queue entry holds the warp until popHead
	if wi.Op.IsGlobal() {
		e.lines = mem.Coalesce(u.takeLines(), wi, w.cta.AddrBase, u.sm.memCfg.LineBytes)
	}
	if wi.Op.WritesRegister() {
		tok := u.free[len(u.free)-1]
		u.free = u.free[:len(u.free)-1]
		n := len(e.lines)
		if !wi.Op.IsGlobal() {
			n = 1 // shared load: one logical completion
		}
		u.table[tok] = pendingLoad{
			warp: w, dst: wi.Dst, remaining: n, issued: now,
			atomic: wi.Op == isa.OpAtomicGlobal, inUse: true,
		}
		e.token = tok
		e.hasToken = true
		w.cta.memRefs++ // token holds the warp until the last transaction
		// The scoreboard holds the destination until the last
		// transaction returns.
		if wi.Dst != 0 {
			w.readyAt[wi.Dst] = notReady
		}
	}
	//gpulint:allow hotalloc queue append is bounded by LDSTQueueCap (canAccept gates entry); the backing array stops growing after the first few instructions
	u.queue = append(u.queue, e)
}

// tick advances the unit one cycle: ripe hit events first, then the head
// instruction.
func (u *ldstUnit) tick(now uint64) {
	for len(u.hits) > 0 && u.hits[0].at <= now {
		u.completeOne(u.hits[0].token, now)
		copy(u.hits, u.hits[1:])
		u.hits = u.hits[:len(u.hits)-1]
	}
	if len(u.queue) == 0 {
		return
	}
	e := &u.queue[0]
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
		u.sm.Stats.SharedAccesses++
		u.sm.Stats.SharedConflictPasses += passes
		e.finishAt = now + passes
	}
	if now < e.finishAt {
		return
	}
	if e.hasToken {
		// Result arrives after the scratchpad latency.
		u.hits = append(u.hits, hitEvent{at: now + u.sm.cfg.SharedLatency, token: e.token})
	}
	u.popHead()
}

// tickGlobal sends the head instruction's next line transaction — the
// per-cycle step of the LDST issue path.
//
//gpulint:hotpath
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
			//gpulint:allow hotalloc hits append is bounded by MaxPendingLoads (one event per outstanding token); the backing array reaches steady state immediately
			u.hits = append(u.hits, hitEvent{at: now + u.sm.memCfg.L1HitLatency, token: e.token})
		}
	case isa.OpStoreGlobal:
		res = u.sm.l1.Store(line, now)
	case isa.OpAtomicGlobal:
		res = u.sm.l1.Atomic(line, e.token, now)
	}
	if res == mem.AccessStall {
		u.sm.Stats.StallLDSTFull++
		return // retry same transaction next cycle
	}
	e.next++
	if e.next >= len(e.lines) {
		u.popHead()
	}
}

//gpulint:hotpath
func (u *ldstUnit) popHead() {
	u.freeGen++
	cta := u.queue[0].warp.cta
	cta.memRefs--
	if cta.recycleArmed && cta.memRefs == 0 {
		cta.recycleArmed = false
		u.sm.poolCTA(cta)
	}
	if ln := u.queue[0].lines; ln != nil {
		//gpulint:allow hotalloc linePool append is bounded by the queue cap — it recycles at most LDSTQueueCap buffers, the opposite of a leak
		u.linePool = append(u.linePool, ln)
	}
	copy(u.queue, u.queue[1:])
	u.queue = u.queue[:len(u.queue)-1]
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
		p.warp.readyAt[p.dst] = now
		p.warp.clearStall()
	}
	cta := p.warp.cta
	cta.memRefs--
	if cta.recycleArmed && cta.memRefs == 0 {
		cta.recycleArmed = false
		u.sm.poolCTA(cta)
	}
	u.sm.memLatencySum += now - p.issued
	u.sm.memLoadsDone++
	p.inUse = false
	u.free = append(u.free, t)
	u.freeGen++
}

// busy reports whether any instruction or transaction is still in flight.
func (u *ldstUnit) busy() bool {
	return len(u.queue) > 0 || len(u.hits) > 0 || len(u.free) < len(u.table)
}

// nextEvent returns the earliest cycle >= now at which tick does work on
// its own: a ripe hit event (the hit list is pop-gated by its head, so the
// head's time is the exact bound) or the queued head instruction. A global
// head acts every cycle (it sends or retries a transaction, mutating stats
// either way); a shared op mid-flight sleeps until finishAt. Transactions
// parked in the pending table wake only on memory responses, which the
// system's own bound covers.
func (u *ldstUnit) nextEvent(now uint64) uint64 {
	next := uint64(NeverEvent)
	if len(u.hits) > 0 {
		if u.hits[0].at <= now {
			return now
		}
		next = u.hits[0].at
	}
	if len(u.queue) > 0 {
		e := &u.queue[0]
		if !e.wi.Op.IsGlobal() && e.finishAt > now {
			if e.finishAt < next {
				next = e.finishAt
			}
		} else {
			return now
		}
	}
	return next
}

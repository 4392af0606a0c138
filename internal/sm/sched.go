package sm

import (
	"fmt"
	"math/bits"

	"gpusched/internal/isa"
)

// skipReason classifies why a warp could not issue this cycle, for stall
// attribution. Reasons are evaluated in readiness order.
type skipReason uint8

const (
	skipNone skipReason = iota
	skipFinished
	skipBarrier
	skipScoreboard
	skipStructural // LDST queue, pending table, or SFU pipe full
	skipDraining   // warp's CTA is draining for preemption
)

// MaxSchedulerWarps is the most warps one scheduler can hold: the width of a
// warpSet. gpu.New rejects a machine whose limits could place more.
const MaxSchedulerWarps = 64

// warpSet is a set of a scheduler's slots: bit i stands for warps[i].
type warpSet uint64

func bit(i int) warpSet { return 1 << uint(i) }

// insertAt opens a clear bit at i, moving bits i and up one place up.
func (m warpSet) insertAt(i int) warpSet {
	low := m & (bit(i) - 1)
	return low | (m&^low)<<1
}

// removeAt drops bit i, moving the bits above it one place down.
func (m warpSet) removeAt(i int) warpSet {
	low := m & (bit(i) - 1)
	return low | m>>uint(i+1)<<uint(i)
}

// scheduler is one warp-issue slot of an SM. It owns a disjoint subset of
// the SM's warps and picks at most one per cycle according to the policy.
//
// The warps sit in dense slots sorted by the policy's age key, oldest first
// (ties by warp sequence number, so add order). Age keys are immutable after
// add, so the order only changes on add and remove. What a failed pick needs
// to know about a warp without loading it lives beside the slots: its cached
// scoreboard wake in stall, and its state in the warpSets.
// The greedy pick is a find-first-set over the slots that could issue, in
// age order; LRR rotates the same mask.
type scheduler struct {
	policy Policy
	// ldst is the SM's memory pipeline, whose back-pressure is an issue
	// condition of memory instructions.
	ldst *ldstUnit

	warps []*Warp
	// stall[i] caches the cycle warps[i]'s current instruction has all its
	// operands ready, so the walk skips a scoreboard-stalled warp with one
	// compare. A pending load contributes notReady: the warp then cannot
	// issue until a response arrives, never merely by time passing.
	stall []uint64
	// loadWait holds the slots with stall[i] == notReady; clearStall drops
	// the bit when the load returns.
	loadWait warpSet
	// barrier holds the warps waiting at a CTA barrier, draining those of
	// CTAs being drained for preemption, which never issue again.
	barrier, draining warpSet
	// opsReady holds the warps whose current instruction was fetched and
	// found to have its operands ready. The bit is sticky until the
	// instruction issues: readyAt moves only on the warp's own issue, or when
	// a load returns and sets it to the present.
	opsReady warpSet
	// memReg and memNoReg split the opsReady warps whose instruction is a
	// memory op with active lanes by whether it writes a register (and so
	// needs a pending-load token). While the LDST unit refuses them the walk
	// drops them in O(1).
	memReg, memNoReg warpSet

	// last is the most recent issuer: the greedy candidate for GTO/BAWS,
	// the rotation origin for LRR and the two-level active set.
	last *Warp
	// sfuFreeAt models the per-scheduler SFU initiation interval.
	sfuFreeAt uint64
	// active/pending implement PolicyTwoLevel's fetch groups; unused by
	// the other policies.
	active     []*Warp
	pending    []*Warp
	activeSize int
	// cert is the verdict of the last failed pick, served until something
	// that can change it happens (see stallCert).
	cert stallCert
	// evals counts readiness evaluations (canIssue calls), for
	// gpu.EngineStats.
	evals uint64
}

// stallCert is a scheduler's stall certificate: the last failed pick looked
// at every warp, so its verdict (nil, reason) holds for every cycle now <
// until — the earliest time-driven wake among them (a scoreboard stall
// expiring, the SFU pipe freeing; NeverEvent if none) — unless a transition
// that can change it clears the certificate first: a load return, a barrier
// release, add/remove, DrainCTA. When the walk saw a warp stalled on the
// LDST unit, the certificate also lapses once the unit frees a queue slot or
// a pending-load token (ldstGen != ldstUnit.freeGen).
type stallCert struct {
	until       uint64 // 0: no certificate
	reason      skipReason
	waitsOnLDST bool
	ldstGen     uint64
}

// sets lists every warpSet, for the slot moves that must carry all of them.
func (s *scheduler) sets() [6]*warpSet {
	return [6]*warpSet{&s.loadWait, &s.barrier, &s.draining, &s.opsReady, &s.memReg, &s.memNoReg}
}

// live is the set of occupied slots.
func (s *scheduler) live() warpSet { return bit(len(s.warps)) - 1 }

// add registers a warp with this scheduler, at its age-ordered slot.
func (s *scheduler) add(w *Warp) {
	if len(s.warps) == MaxSchedulerWarps {
		panic(fmt.Sprintf("sm: more than %d warps on one scheduler", MaxSchedulerWarps))
	}
	w.sched = s
	i := len(s.warps)
	for i > 0 && s.older(w, s.warps[i-1]) {
		i--
	}
	s.warps = append(s.warps, nil)
	copy(s.warps[i+1:], s.warps[i:])
	s.warps[i] = w
	s.stall = append(s.stall, 0)
	copy(s.stall[i+1:], s.stall[i:])
	s.stall[i] = 0
	for _, m := range s.sets() {
		*m = m.insertAt(i)
	}
	s.renumber(i)
	if s.policy == PolicyTwoLevel {
		if len(s.active) < s.activeCap() {
			s.active = append(s.active, w)
		} else {
			s.pending = append(s.pending, w)
		}
	}
	s.cert.until = 0
}

// renew empties the scheduler for a renewed core (SM.Renew), keeping its
// slot arrays.
func (s *scheduler) renew(cfg *Config, ldst *ldstUnit) {
	clear(s.warps[:cap(s.warps)])
	clear(s.active[:cap(s.active)])
	clear(s.pending[:cap(s.pending)])
	*s = scheduler{
		policy:     cfg.WarpPolicy,
		activeSize: cfg.ActiveSetSize,
		ldst:       ldst,
		warps:      s.warps[:0],
		stall:      s.stall[:0],
		active:     s.active[:0],
		pending:    s.pending[:0],
	}
}

// renumber refreshes the slot index of every warp from slot i up.
func (s *scheduler) renumber(i int) {
	for ; i < len(s.warps); i++ {
		s.warps[i].slot = i
	}
}

// remove drops a finished warp, preserving the order of the rest (LRR
// rotation position depends on stable order). Removing a warp the scheduler
// does not hold is a no-op.
func (s *scheduler) remove(w *Warp) {
	i := w.slot
	if i >= len(s.warps) || s.warps[i] != w {
		return
	}
	n := len(s.warps) - 1
	copy(s.warps[i:], s.warps[i+1:])
	s.warps[n] = nil
	s.warps = s.warps[:n]
	copy(s.stall[i:], s.stall[i+1:])
	s.stall = s.stall[:n]
	for _, m := range s.sets() {
		*m = m.removeAt(i)
	}
	s.renumber(i)
	s.cert.until = 0
	if s.policy == PolicyTwoLevel {
		drop := func(list []*Warp) []*Warp {
			for i, x := range list {
				if x == w {
					copy(list[i:], list[i+1:])
					return list[:len(list)-1]
				}
			}
			return list
		}
		was := len(s.active)
		s.active = drop(s.active)
		s.pending = drop(s.pending)
		if len(s.active) < was && len(s.pending) > 0 {
			// Promote the longest-waiting pending warp.
			s.active = append(s.active, s.pending[0])
			copy(s.pending, s.pending[1:])
			s.pending = s.pending[:len(s.pending)-1]
		}
	}
	if s.last == w {
		s.last = nil
	}
}

func (s *scheduler) activeCap() int {
	if s.activeSize < 1 {
		return 8
	}
	return s.activeSize
}

// ageKey returns the scheduling age of w under the policy: smaller is
// older/higher priority. GTO ages by CTA arrival then warp dispatch order,
// which *serializes* the CTAs of a BCS gang (the first CTA's warps strictly
// outrank the second's). BAWS instead keys on (block age, warp index within
// CTA, CTA index within block): the gang's CTAs interleave warp-for-warp and
// progress in lockstep, so the lines they share are touched while still
// resident — the point of the block-aware warp scheduler.
func (s *scheduler) ageKey(w *Warp) (uint64, uint64, uint64) {
	switch s.policy {
	case PolicyBAWS:
		idx := uint64(0)
		if w.cta.IndexInBlock > 0 {
			idx = uint64(w.cta.IndexInBlock)
		}
		return w.cta.BlockKey, uint64(w.at.Warp), idx
	default:
		return w.cta.Arrival, 0, w.seq
	}
}

func ageLess(a1, a2, a3, b1, b2, b3 uint64) bool {
	if a1 != b1 {
		return a1 < b1
	}
	if a2 != b2 {
		return a2 < b2
	}
	return a3 < b3
}

// older reports whether a goes before b in the slot order: by age key, and
// on equal keys by sequence number, which is add order on an SM.
func (s *scheduler) older(a, b *Warp) bool {
	a1, a2, a3 := s.ageKey(a)
	b1, b2, b3 := s.ageKey(b)
	if ageLess(a1, a2, a3, b1, b2, b3) {
		return true
	}
	return !ageLess(b1, b2, b3, a1, a2, a3) && a.seq < b.seq
}

// operandsReady reports whether w's current instruction has its sources and
// destination free of pending writes at cycle now. On failure it records in
// stall when the operands will all be ready.
func (s *scheduler) operandsReady(w *Warp, now uint64) bool {
	if s.stall[w.slot] > now {
		return false
	}
	wi := &w.cur
	blocked := uint64(0)
	for _, r := range wi.Src {
		if at := w.ready(r); at > blocked {
			blocked = at
		}
	}
	if at := w.ready(wi.Dst); at > blocked {
		blocked = at
	}
	if blocked > now {
		s.stall[w.slot] = blocked
		if blocked == notReady {
			s.loadWait |= bit(w.slot)
		}
		return false
	}
	return true
}

// clearStall invalidates w's scoreboard cache (called on load return) and,
// with it, the stall certificate. An exited warp's slot may already hold
// another warp, so only the certificate is touched for it.
func (s *scheduler) clearStall(w *Warp) {
	s.cert.until = 0
	if w.finished {
		return
	}
	s.stall[w.slot] = 0
	s.loadWait &^= bit(w.slot)
}

// issued drops what the sticky sets know about w's current instruction,
// which has just issued.
func (s *scheduler) issued(w *Warp) {
	b := bit(w.slot)
	s.opsReady &^= b
	s.memReg &^= b
	s.memNoReg &^= b
}

// drain marks w, whose CTA begins draining: it will never issue again, so its
// memory head, if any, is no longer a warp the LDST unit holds up.
func (s *scheduler) drain(w *Warp) {
	s.issued(w)
	s.draining |= bit(w.slot)
}

// canIssue evaluates every issue condition for w's current instruction.
func (s *scheduler) canIssue(w *Warp, now uint64) (bool, skipReason) {
	s.evals++
	if w.finished {
		return false, skipFinished
	}
	b := bit(w.slot)
	wi := &w.cur
	if s.opsReady&b == 0 {
		// A warp enters opsReady only past these checks, and leaves it when
		// it issues (a barrier, say) or starts draining.
		if s.draining&b != 0 {
			// Drain protocol: no new instructions past the preemption point.
			return false, skipDraining
		}
		if s.barrier&b != 0 {
			return false, skipBarrier
		}
		if !w.fetch() {
			return false, skipFinished
		}
		if !s.operandsReady(w, now) {
			return false, skipScoreboard
		}
		s.opsReady |= b
		if wi.Op.IsMemory() && wi.Mask != 0 {
			if wi.Op.WritesRegister() {
				s.memReg |= b
			} else {
				s.memNoReg |= b
			}
		}
	}
	switch {
	case wi.Op == isa.OpSfu && s.sfuFreeAt > now:
		return false, skipStructural
	case (s.memReg|s.memNoReg)&b != 0 && !s.ldst.canAccept(s.memReg&b != 0):
		return false, skipStructural
	}
	return true, skipNone
}

// stalled folds warp w, which cannot issue for reason, into the certificate
// c under construction.
func (s *scheduler) stalled(c *stallCert, w *Warp, reason skipReason) {
	switch reason {
	case skipScoreboard:
		// operandsReady cached the wake cycle; notReady (a pending load) is
		// NeverEvent, and the load's return clears the certificate.
		c.until = min(c.until, s.stall[w.slot])
	case skipStructural:
		if w.cur.Op == isa.OpSfu {
			c.until = min(c.until, s.sfuFreeAt)
		} else {
			c.waitsOnLDST = true
		}
	}
}

// certify ends a failed pick that evaluated every warp and mutated nothing:
// its verdict becomes the scheduler's certificate.
func (s *scheduler) certify(c stallCert, reason skipReason) (*Warp, skipReason) {
	c.reason = reason
	s.cert = c
	return nil, reason
}

// pick selects the next warp to issue at cycle now. The returned reason
// explains the preferred warp's stall when nothing was ready; a failed pick
// that mutated nothing also leaves that verdict behind as the scheduler's
// stallCert.
func (s *scheduler) pick(now uint64) (*Warp, skipReason) {
	if len(s.warps) == 0 {
		return nil, skipNone
	}
	switch s.policy {
	case PolicyLRR:
		return s.pickLRR(now)
	case PolicyTwoLevel:
		return s.pickTwoLevel(now)
	default:
		return s.pickGreedyOldest(now)
	}
}

// candidates returns the slots a walk must look at: every warp not at a
// barrier and not waiting on a load — neither can issue, and neither adds a
// wake to the certificate — less the memory heads the LDST unit refuses this
// cycle, whose stall it records in c at once. Nothing a pick does changes
// the LDST unit, so the refusal holds for the whole walk.
func (s *scheduler) candidates(c *stallCert) warpSet {
	cand := s.live() &^ (s.barrier | s.loadWait)
	var refused warpSet
	switch {
	case !s.ldst.canAccept(false):
		refused = s.memReg | s.memNoReg
	case !s.ldst.canAccept(true):
		refused = s.memReg
	}
	if refused != 0 {
		c.waitsOnLDST = true
		cand &^= refused
	}
	return cand
}

// walk looks at the slots of m in ascending order and returns the first
// that can issue, folding every other one into c. A warp still inside a
// cached scoreboard stall is folded from stall alone, without loading it.
func (s *scheduler) walk(m warpSet, c *stallCert, now uint64) *Warp {
	for ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(uint64(m))
		if u := s.stall[i]; u > now {
			c.until = min(c.until, u)
			continue
		}
		w := s.warps[i]
		ok, reason := s.canIssue(w, now)
		if ok {
			return w
		}
		s.stalled(c, w, reason)
	}
	return nil
}

// reasonAt attributes a no-issue cycle to the warp in slot i, the one the
// policy wanted to run, once a walk over cand found nothing to issue. Where
// the sets and the stall cache hold the verdict it is read from them, in
// canIssue's order; only a warp the walk evaluated is evaluated again.
func (s *scheduler) reasonAt(i int, cand warpSet, now uint64) skipReason {
	b := bit(i)
	switch {
	case s.barrier&b != 0:
		return skipBarrier
	case s.stall[i] == notReady:
		return skipScoreboard
	case s.draining&b != 0:
		return skipDraining
	case s.stall[i] > now:
		// Written for the current instruction: an issue leaves the cached
		// wake of the previous one at or before the issue cycle.
		return skipScoreboard
	case cand&b == 0:
		return skipStructural // a memory head the LDST unit refused
	}
	_, reason := s.canIssue(s.warps[i], now)
	return reason
}

// pickGreedyOldest implements GTO and BAWS: the last issuer goes first; if
// it cannot issue, the oldest ready warp (by the policy's age key) wins and
// becomes the new greedy warp. A failed pick is attributed to the stall of
// the overall-oldest warp.
func (s *scheduler) pickGreedyOldest(now uint64) (*Warp, skipReason) {
	if l := s.last; l != nil && (s.barrier|s.loadWait)&bit(l.slot) == 0 && s.stall[l.slot] <= now {
		if ok, _ := s.canIssue(l, now); ok {
			return l, skipNone
		}
	}
	c := stallCert{until: NeverEvent}
	cand := s.candidates(&c)
	if w := s.walk(cand, &c, now); w != nil {
		s.last = w
		return w, skipNone
	}
	return s.certify(c, s.reasonAt(0, cand, now))
}

// pickLRR resumes after the last issuer: the slots above it, then the ones
// from 0 up. A failed pick is attributed to the first warp of the rotation.
// Unlike the greedy walk, LRR has always evaluated a warp in full rather
// than reading its scoreboard wake first, so a draining warp — refused before
// its scoreboard is looked at — adds no wake to the certificate.
func (s *scheduler) pickLRR(now uint64) (*Warp, skipReason) {
	start := 0
	if s.last != nil && s.last.slot+1 < len(s.warps) {
		start = s.last.slot + 1
	}
	c := stallCert{until: NeverEvent}
	cand := s.candidates(&c) &^ s.draining
	below := bit(start) - 1
	w := s.walk(cand&^below, &c, now)
	if w == nil {
		w = s.walk(cand&below, &c, now)
	}
	if w != nil {
		s.last = w
		return w, skipNone
	}
	return s.certify(c, s.reasonAt(start, cand, now))
}

// pickTwoLevel issues round-robin within the active set; when every active
// warp is blocked, one that waits on a *memory* result is demoted and the
// longest-waiting pending warp promoted (and issued immediately if ready).
// ALU-latency stalls do not trigger swaps — they resolve within a few
// cycles, which is the point of keeping a small compute-dense active set.
func (s *scheduler) pickTwoLevel(now uint64) (*Warp, skipReason) {
	if len(s.active) == 0 {
		return nil, skipNone
	}
	start := 0
	if s.last != nil {
		for i, w := range s.active {
			if w == s.last {
				start = i + 1
				break
			}
		}
	}
	firstReason := skipNone
	c := stallCert{until: NeverEvent}
	for k := 0; k < len(s.active); k++ {
		w := s.active[(start+k)%len(s.active)]
		ok, reason := s.canIssue(w, now)
		if ok {
			s.last = w
			return w, skipNone
		}
		s.stalled(&c, w, reason)
		if firstReason == skipNone {
			firstReason = reason
		}
	}
	// Nothing issuable: swap out one active warp blocked on a long-wait
	// condition — a pending memory result, or a barrier (its release may
	// depend on warps waiting in the pending set, so keeping it active
	// would deadlock the CTA). One swap per cycle.
	for i, w := range s.active {
		if len(s.pending) == 0 || (s.loadWait|s.barrier)&bit(w.slot) == 0 {
			continue
		}
		promoted := s.pending[0]
		copy(s.pending, s.pending[1:])
		s.pending[len(s.pending)-1] = w
		s.active[i] = promoted
		if ok, _ := s.canIssue(promoted, now); ok {
			s.last = promoted
			return promoted, skipNone
		}
		return nil, firstReason // the fetch groups changed: nothing to certify
	}
	// No swap: the fetch groups are unchanged and every active warp was just
	// evaluated. No active warp waits on a load or a barrier, and only an
	// issue, or a load return or barrier release that clears the
	// certificate, can make one wait, so no swap can happen while it stands.
	return s.certify(c, firstReason)
}

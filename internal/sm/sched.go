package sm

import "gpusched/internal/isa"

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

// scheduler is one warp-issue slot of an SM. It owns a disjoint subset of
// the SM's warps and picks at most one per cycle according to the policy.
type scheduler struct {
	policy Policy
	warps  []*Warp
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
	// byAge holds the warps sorted by policy age key, oldest first (equal
	// keys in add order). Age keys are immutable after add, so the order
	// only changes on add/remove/policy switch. Greedy-oldest picks walk it
	// in order and stop at the first ready warp instead of evaluating every
	// warp's readiness, and byAge[0] resolves stall attribution.
	byAge []*Warp
}

// stallCert is a scheduler's stall certificate: the last failed pick looked
// at every warp, so its verdict (nil, reason) holds for every cycle now <
// until — the earliest time-driven wake among them (a scoreboard stall
// expiring, the SFU pipe freeing; NeverEvent if none) — unless a transition
// that can change it clears the certificate first: a load return, a barrier
// release, add/remove, DrainCTA, SetWarpPolicy. When the walk saw a warp
// stalled on the LDST unit, the certificate also lapses once the unit frees
// a queue slot or a pending-load token (ldstGen != ldstUnit.freeGen).
type stallCert struct {
	until       uint64 // 0: no certificate
	reason      skipReason
	waitsOnLDST bool
	ldstGen     uint64
}

// stalled folds warp w, which cannot issue for reason, into the certificate
// c under construction.
func (s *scheduler) stalled(c *stallCert, w *Warp, reason skipReason) {
	switch reason {
	case skipScoreboard:
		// operandsReady cached the wake cycle; notReady (a pending load) is
		// NeverEvent, and the load's return clears the certificate.
		c.until = min(c.until, w.stallUntil)
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

// add registers a warp with this scheduler.
func (s *scheduler) add(w *Warp) {
	w.sched = s
	s.warps = append(s.warps, w)
	if s.policy == PolicyTwoLevel {
		if len(s.active) < s.activeCap() {
			s.active = append(s.active, w)
		} else {
			s.pending = append(s.pending, w)
		}
	}
	s.cert.until = 0
	s.insertByAge(w)
}

// insertByAge places w at its sorted position: after every strictly-older
// warp and after any warp with an equal key (matching the old linear scan,
// which kept the first-added warp on ties).
func (s *scheduler) insertByAge(w *Warp) {
	a1, a2, a3 := s.ageKey(w)
	i := len(s.byAge)
	for i > 0 {
		b1, b2, b3 := s.ageKey(s.byAge[i-1])
		if !ageLess(a1, a2, a3, b1, b2, b3) {
			break
		}
		i--
	}
	s.byAge = append(s.byAge, nil)
	copy(s.byAge[i+1:], s.byAge[i:])
	s.byAge[i] = w
}

// rebuildAge re-sorts the age order from scratch (policy switch — never on
// the per-cycle path).
func (s *scheduler) rebuildAge() {
	s.byAge = s.byAge[:0]
	for _, w := range s.warps {
		s.insertByAge(w)
	}
}

// remove drops a finished warp, preserving the order of the rest (LRR
// rotation position depends on stable order).
func (s *scheduler) remove(w *Warp) {
	drop := func(list []*Warp) []*Warp {
		for i, x := range list {
			if x == w {
				copy(list[i:], list[i+1:])
				return list[:len(list)-1]
			}
		}
		return list
	}
	s.warps = drop(s.warps)
	s.byAge = drop(s.byAge)
	s.cert.until = 0
	if s.policy == PolicyTwoLevel {
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
		return w.cta.BlockKey, uint64(w.warpInCTA), idx
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

// pick selects the next warp to issue at cycle now. ready reports whether a
// warp can issue right now (operands, barrier, structural); it may be called
// several times per warp per cycle. The returned reason explains the
// preferred warp's stall when nothing was ready; a failed pick that mutated
// nothing also leaves that verdict behind as the scheduler's stallCert.
func (s *scheduler) pick(now uint64, ready func(w *Warp) (bool, skipReason)) (*Warp, skipReason) {
	if len(s.warps) == 0 {
		return nil, skipNone
	}
	switch s.policy {
	case PolicyLRR:
		return s.pickLRR(ready)
	case PolicyTwoLevel:
		return s.pickTwoLevel(ready)
	default:
		return s.pickGreedyOldest(now, ready)
	}
}

// pickTwoLevel issues round-robin within the active set; when every active
// warp is blocked, one that waits on a *memory* result is demoted and the
// longest-waiting pending warp promoted (and issued immediately if ready).
// ALU-latency stalls do not trigger swaps — they resolve within a few
// cycles, which is the point of keeping a small compute-dense active set.
func (s *scheduler) pickTwoLevel(ready func(w *Warp) (bool, skipReason)) (*Warp, skipReason) {
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
		ok, reason := ready(w)
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
	// would deadlock the CTA).
	if len(s.pending) > 0 {
		for i, w := range s.active {
			if w.stallUntil != notReady && !w.atBarrier {
				continue
			}
			promoted := s.pending[0]
			copy(s.pending, s.pending[1:])
			s.pending[len(s.pending)-1] = w
			s.active[i] = promoted
			if ok, _ := ready(promoted); ok {
				s.last = promoted
				return promoted, skipNone
			}
			break // one swap per cycle
		}
		return nil, firstReason // the fetch groups changed: nothing to certify
	}
	// Nothing pending: every warp is active and was just evaluated.
	return s.certify(c, firstReason)
}

func (s *scheduler) pickLRR(ready func(w *Warp) (bool, skipReason)) (*Warp, skipReason) {
	start := 0
	if s.last != nil {
		for i, w := range s.warps {
			if w == s.last {
				start = i + 1
				break
			}
		}
	}
	n := len(s.warps)
	firstReason := skipNone
	c := stallCert{until: NeverEvent}
	for k := 0; k < n; k++ {
		w := s.warps[(start+k)%n]
		// Parked warps cannot issue; derive their reason without the
		// (side-effect-free, but costly) readiness evaluation.
		var ok bool
		var reason skipReason
		switch {
		case w.atBarrier:
			reason = skipBarrier
		case w.stallUntil == notReady:
			reason = skipScoreboard
		default:
			ok, reason = ready(w)
		}
		if ok {
			s.last = w
			return w, skipNone
		}
		s.stalled(&c, w, reason)
		if firstReason == skipNone {
			firstReason = reason
		}
	}
	return s.certify(c, firstReason)
}

// pickGreedyOldest implements GTO and BAWS: the last issuer goes first; if
// it cannot issue, the oldest ready warp (by the policy's age key) wins and
// becomes the new greedy warp. Warps at a barrier or still inside a cached
// scoreboard stall are skipped without evaluation: their readiness check is
// a guaranteed no-op failure.
func (s *scheduler) pickGreedyOldest(now uint64, ready func(w *Warp) (bool, skipReason)) (*Warp, skipReason) {
	if l := s.last; l != nil && !l.atBarrier && l.stallUntil <= now {
		if ok, _ := ready(l); ok {
			return l, skipNone
		}
	}
	c := stallCert{until: NeverEvent}
	for _, w := range s.byAge {
		if w.atBarrier {
			continue
		}
		if w.stallUntil > now {
			c.until = min(c.until, w.stallUntil)
			continue
		}
		ok, reason := ready(w)
		if ok {
			// byAge is oldest-first, so the first ready warp is the pick.
			s.last = w
			return w, skipNone
		}
		s.stalled(&c, w, reason)
	}
	return s.certify(c, s.oldestReason(ready))
}

// oldestReason attributes a no-issue cycle to the stall of the overall-
// oldest warp — the one the greedy policies *want* to run (pick has checked
// that there is one).
func (s *scheduler) oldestReason(ready func(w *Warp) (bool, skipReason)) skipReason {
	w := s.byAge[0]
	switch {
	case w.atBarrier:
		return skipBarrier
	case w.stallUntil == notReady:
		return skipScoreboard
	default:
		_, reason := ready(w)
		return reason
	}
}

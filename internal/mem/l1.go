package mem

import "gpusched/internal/stats"

// Sender is the injection port an L1 uses to push misses and write-throughs
// into the interconnect. MemSystem provides one per core.
type Sender interface {
	// CanSend reports whether a request to lineAddr's partition would be
	// accepted this cycle.
	CanSend(lineAddr uint64) bool
	// Send injects the request. Call only after CanSend.
	Send(req Request, now uint64)
	// Await enrolls the caller as waiting for space in lineAddr's partition,
	// which CanSend has just refused. The partition's next pop wakes the
	// lowest-index core waiting on it (Waker.WakeCore) and ends its wait.
	Await(lineAddr uint64)
}

// AccessResult is the outcome of an L1 access attempt.
type AccessResult uint8

const (
	// AccessHit completed in L1; the data is ready after L1HitLatency.
	AccessHit AccessResult = iota
	// AccessPending left the core (miss sent or merged, or store/atomic
	// forwarded); loads and atomics will produce a Response later.
	AccessPending
	// AccessStall could not be processed (MSHR or interconnect full). The
	// LDST unit must try the same transaction again; until something it
	// waits on frees (L1.Waiting), every attempt would be refused the same way.
	AccessStall
)

// L1 is the per-core data-cache front end: a tag array for loads (Fermi
// style — write-through, no write-allocate, atomics bypass), an MSHR file,
// and the injection port toward the core's memory partitions.
//
// The L1 is deliberately owned by the SM and ticked inside the core loop;
// only misses cross into the shared memory system.
type L1 struct {
	cache *Cache
	mshr  *MSHR
	cfg   *Config
	port  Sender
	core  int

	// head is the last access's refusal (zero when it went through) and its
	// cycle. Only the LDST head accesses the L1, so it describes that head
	// until its next attempt.
	head refusedHead

	// atomicToken is the reusable one-element buffer OnResponse returns for
	// atomic completions, valid (like MSHR.Complete's result) only until the
	// next response.
	atomicToken [1]uint32
}

// NewL1 builds the L1 for core coreID with injection port p.
func NewL1(cfg *Config, coreID int, p Sender) *L1 { return RenewL1(nil, cfg, coreID, p) }

// RenewL1 is NewL1 built in prev's tag store and MSHR file (prev nil: new
// ones), as empty as a new L1's. prev must belong to a finished machine
// (RenewSystem).
func RenewL1(prev *L1, cfg *Config, coreID int, p Sender) *L1 {
	l := prev
	if l == nil {
		l = new(L1)
	}
	*l = L1{
		cache: renewCache(l.cache, cfg.L1Bytes, cfg.LineBytes, cfg.L1Ways),
		mshr:  renewMSHR(l.mshr, cfg.L1MSHREntries, cfg.L1MSHRMerges),
		cfg:   cfg,
		port:  p,
		core:  coreID,
	}
	return l
}

// Load attempts a load of lineAddr for the pending-access token. On
// AccessHit the caller schedules its own writeback after L1HitLatency; on
// AccessPending a Response carrying token will arrive later.
func (l *L1) Load(lineAddr uint64, token uint32, now uint64) AccessResult {
	l.head.retry(&l.cache.Stats, now)
	l.cache.Stats.Accesses++
	if l.cache.Lookup(lineAddr, false) {
		l.cache.Stats.Hits++
		return AccessHit
	}
	l.cache.Stats.Misses++
	pending := l.mshr.Pending(lineAddr)
	if pending && l.mshr.Merge(lineAddr, token) {
		l.cache.Stats.MSHRMerges++
		return AccessPending
	}
	if pending || l.mshr.Full() {
		// No merge slot or entry frees before some fill returns.
		l.cache.Stats.MSHRStalls++
		l.head = refusedHead{refusalWaits | refusalMiss | refusalMSHRStall, now}
		return AccessStall
	}
	if !l.port.CanSend(lineAddr) {
		l.port.Await(lineAddr)
		l.head = refusedHead{refusalWaits | refusalMiss, now}
		return AccessStall
	}
	l.mshr.Allocate(lineAddr, token)
	l.port.Send(Request{Kind: ReqLoad, LineAddr: lineAddr, CoreID: l.core, Token: token, Born: now}, now)
	return AccessPending
}

// Store write-throughs lineAddr. Stores carry no token: the warp does not
// wait for them. The line is not allocated on miss.
func (l *L1) Store(lineAddr uint64, now uint64) AccessResult {
	return l.forward(ReqStore, lineAddr, 0, now)
}

// Atomic forwards a read-modify-write to the owning L2 partition, bypassing
// the L1 tag array entirely.
func (l *L1) Atomic(lineAddr uint64, token uint32, now uint64) AccessResult {
	return l.forward(ReqAtomic, lineAddr, token, now)
}

// forward sends a store or an atomic straight to the port. A refused one
// counts nothing, so waiting costs only the LDST unit's stall cycles.
func (l *L1) forward(kind ReqKind, lineAddr uint64, token uint32, now uint64) AccessResult {
	l.head.retry(&l.cache.Stats, now)
	if !l.port.CanSend(lineAddr) {
		l.port.Await(lineAddr)
		l.head = refusedHead{refusalWaits, now}
		return AccessStall
	}
	l.port.Send(Request{Kind: kind, LineAddr: lineAddr, CoreID: l.core, Token: token, Born: now}, now)
	return AccessPending
}

// Waiting reports whether the last access was refused. Until the refused
// transaction is tried again, nothing but a response to this core (an MSHR
// refusal waits on a fill) or a pop at its partition (a refused send, see
// Sender.Await) can change the verdict, and each attempt before then would
// add the same counters: nothing for a store or atomic, an access and a miss
// for a load, plus an MSHR stall when the MSHR refused it. A read settles
// the attempts skipped so far (Stats), and the next attempt the rest.
func (l *L1) Waiting() bool { return l.head.refusal != 0 }

// OnResponse handles a returning memory-system response: load fills install
// the line and release every merged token; atomic completions release only
// their own token (no fill). The caller distinguishes the two via wasAtomic
// from its own pending-access table — resp.Atomic is advisory only (an L2
// merge can stamp a plain load's response with it, but that load still owns
// an L1 MSHR entry that must complete). The returned slice aliases a
// recycled buffer; consume it before the next access or response.
func (l *L1) OnResponse(resp Response, wasAtomic bool) []uint32 {
	if wasAtomic {
		l.atomicToken[0] = resp.Token
		return l.atomicToken[:]
	}
	l.cache.Fill(resp.LineAddr, false)
	return l.mshr.Complete(resp.LineAddr)
}

// Contains probes the tag array without side effects (tests/invariants).
func (l *L1) Contains(lineAddr uint64) bool { return l.cache.Contains(lineAddr) }

// Stats returns the L1's counters through cycle t (exclusive): the L1 must
// have run the cycles before t, and not t. It settles a waiting head's
// skipped attempts up to t first.
func (l *L1) Stats(t uint64) stats.Cache {
	l.head.settle(&l.cache.Stats, t)
	return l.cache.Stats
}

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
}

// AccessResult is the outcome of an L1 access attempt.
type AccessResult uint8

const (
	// AccessHit completed in L1; the data is ready after L1HitLatency.
	AccessHit AccessResult = iota
	// AccessPending left the core (miss sent or merged, or store/atomic
	// forwarded); loads and atomics will produce a Response later.
	AccessPending
	// AccessStall could not be processed (MSHR or interconnect full);
	// the LDST unit must retry the same transaction next cycle.
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

	// atomicToken is the reusable one-element buffer OnResponse returns for
	// atomic completions, valid (like MSHR.Complete's result) only until the
	// next response.
	atomicToken [1]uint32
}

// NewL1 builds the L1 for core coreID with injection port p.
func NewL1(cfg *Config, coreID int, p Sender) *L1 {
	return &L1{
		cache: NewCache(cfg.L1Bytes, cfg.LineBytes, cfg.L1Ways),
		mshr:  NewMSHR(cfg.L1MSHREntries, cfg.L1MSHRMerges),
		cfg:   cfg,
		port:  p,
		core:  coreID,
	}
}

// Load attempts a load of lineAddr for the pending-access token. On
// AccessHit the caller schedules its own writeback after L1HitLatency; on
// AccessPending a Response carrying token will arrive later.
func (l *L1) Load(lineAddr uint64, token uint32, now uint64) AccessResult {
	l.cache.Stats.Accesses++
	if l.cache.Lookup(lineAddr, false) {
		l.cache.Stats.Hits++
		return AccessHit
	}
	l.cache.Stats.Misses++
	if l.mshr.Pending(lineAddr) {
		if l.mshr.Merge(lineAddr, token) {
			l.cache.Stats.MSHRMerges++
			return AccessPending
		}
		l.cache.Stats.MSHRStalls++
		return AccessStall
	}
	if l.mshr.Full() || !l.port.CanSend(lineAddr) {
		if l.mshr.Full() {
			l.cache.Stats.MSHRStalls++
		}
		return AccessStall
	}
	l.mshr.Allocate(lineAddr, token)
	l.port.Send(Request{Kind: ReqLoad, LineAddr: lineAddr, CoreID: l.core, Token: token, Born: now}, now)
	return AccessPending
}

// Store write-throughs lineAddr. Stores carry no token: the warp does not
// wait for them. The line is not allocated on miss.
func (l *L1) Store(lineAddr uint64, now uint64) AccessResult {
	if !l.port.CanSend(lineAddr) {
		return AccessStall
	}
	l.port.Send(Request{Kind: ReqStore, LineAddr: lineAddr, CoreID: l.core, Born: now}, now)
	return AccessPending
}

// Atomic forwards a read-modify-write to the owning L2 partition, bypassing
// the L1 tag array entirely.
func (l *L1) Atomic(lineAddr uint64, token uint32, now uint64) AccessResult {
	if !l.port.CanSend(lineAddr) {
		return AccessStall
	}
	l.port.Send(Request{Kind: ReqAtomic, LineAddr: lineAddr, CoreID: l.core, Token: token, Born: now}, now)
	return AccessPending
}

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

// MSHRUsed returns the number of outstanding miss entries (for drain checks).
func (l *L1) MSHRUsed() int { return l.mshr.Used() }

// Contains probes the tag array without side effects (tests/invariants).
func (l *L1) Contains(lineAddr uint64) bool { return l.cache.Contains(lineAddr) }

// CacheStats returns a pointer to the underlying hit/miss counters.
func (l *L1) CacheStats() *stats.Cache { return &l.cache.Stats }

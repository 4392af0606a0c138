package mem

import "gpusched/internal/stats"

// ReqKind distinguishes memory-transaction types below the core.
type ReqKind uint8

const (
	// ReqLoad fetches one line; a response is returned to the core.
	ReqLoad ReqKind = iota
	// ReqStore writes through to L2; no response is returned.
	ReqStore
	// ReqAtomic performs a read-modify-write at L2 and returns a response.
	ReqAtomic
	// reqWriteBack carries a dirty L2 eviction to DRAM (internal).
	reqWriteBack
)

// String returns a short mnemonic for the request kind.
func (k ReqKind) String() string {
	switch k {
	case ReqLoad:
		return "load"
	case ReqStore:
		return "store"
	case ReqAtomic:
		return "atomic"
	case reqWriteBack:
		return "wb"
	default:
		return "?"
	}
}

// Request is one line-granularity memory transaction traveling between the
// core and the memory partitions. Requests are small and passed by value
// through queues.
type Request struct {
	Kind ReqKind
	// LineAddr is the line-aligned physical address.
	LineAddr uint64
	// CoreID identifies the requesting SM for response routing.
	CoreID int
	// Token is an opaque core-side identifier tying the response back to
	// the pending warp access. The memory system echoes it untouched.
	Token uint32
	// Born is the cycle the request entered the memory system, for
	// latency accounting.
	Born uint64
}

// Response is the completion notice delivered back to the requesting core.
type Response struct {
	LineAddr uint64
	Token    uint32
	// Atomic marks responses to atomic requests (no L1 fill on these:
	// atomics bypass L1, Fermi-style).
	Atomic bool
}

// refusal describes a refused access: nonzero exactly while the access
// waits, and its other bits say what one more identical attempt adds to the
// cache's counters.
type refusal uint8

const (
	// refusalWaits is set on every refusal.
	refusalWaits refusal = 1 << iota
	// refusalMiss: each attempt counts an access and a miss.
	refusalMiss
	// refusalMSHRStall: each attempt counts an MSHR stall.
	refusalMSHRStall
)

// refusedHead is the refusal of the request at the head of a cache's queue
// and the cycle of its last attempt. Both cache levels keep one, so the
// cycles a waiting head is not tried again are charged in bulk, by settle,
// instead of one attempt at a time.
type refusedHead struct {
	refusal
	at uint64
}

// settle charges c the attempts a waiting head skipped in (at, t) — every
// cycle in that span went untried, since a tick tries the head again — and
// moves at to t-1. The head's next attempt calls it, and so does every read
// of c, which must come after the cache ran cycle t-1 and before it runs t.
func (h *refusedHead) settle(c *stats.Cache, t uint64) {
	if h.refusal == 0 || t <= h.at+1 {
		return
	}
	k := t - h.at - 1
	h.at = t - 1
	if h.refusal&refusalMiss != 0 {
		c.Accesses += k
		c.Misses += k
	}
	if h.refusal&refusalMSHRStall != 0 {
		c.MSHRStalls += k
	}
}

// retry settles c up to the head's attempt at cycle now, which may go through.
func (h *refusedHead) retry(c *stats.Cache, now uint64) {
	h.settle(c, now)
	h.refusal = 0
}

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
// cache's counters. Both cache levels keep the refusal of the request at the
// head of their queue, so the cycles a waiting head is not tried again can be
// charged in bulk instead of one attempt at a time.
type refusal uint8

const (
	// refusalWaits is set on every refusal.
	refusalWaits refusal = 1 << iota
	// refusalMiss: each attempt counts an access and a miss.
	refusalMiss
	// refusalMSHRStall: each attempt counts an MSHR stall.
	refusalMSHRStall
)

// charge adds k identical attempts of the refused access to c.
func (r refusal) charge(c *stats.Cache, k uint64) {
	if r&refusalMiss != 0 {
		c.Accesses += k
		c.Misses += k
	}
	if r&refusalMSHRStall != 0 {
		c.MSHRStalls += k
	}
}

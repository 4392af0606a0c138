package fleet

import (
	"hash/maphash"
	"sync"
)

// routerCacheBytes is the router cache's byte budget. A fleet-serve reply
// and its key take about 1 KB, so the budget holds some 16,000 keys.
const routerCacheBytes = 16 << 20

// seenSlots sizes the doorkeeper: one hash per slot, about as many slots
// as the budget holds keys.
const seenSlots = 1 << 14

// cachedReply is one stored shard reply: its body verbatim and the shard
// that produced it.
type cachedReply struct {
	shard string
	body  []byte
}

// respCache is the router's content-addressed store of shard 200 replies
// to POST /v1/simulate, keyed by canonical request key. It stores a key's
// reply only from its second forward on: a doorkeeper of key hashes
// remembers which keys were forwarded before, so a key asked for once
// streams through and never displaces one that repeats. It evicts the
// oldest entries first once keys and bodies outgrow the byte budget.
type respCache struct {
	budget int // routerCacheBytes outside tests
	seed   maphash.Seed

	// mu guards everything below.
	mu                      sync.Mutex
	entries                 map[string]cachedReply
	order                   []string // stored keys, oldest first
	bytes                   int
	seen                    [seenSlots]uint64 // hash of the key last forwarded in each slot
	hits, misses, evictions uint64
}

func newRespCache() *respCache {
	return &respCache{budget: routerCacheBytes, seed: maphash.MakeSeed(), entries: map[string]cachedReply{}}
}

// get returns the stored reply for key, counting a hit or a miss. On a
// miss, admit reports whether key was forwarded before, so that its reply
// is worth storing.
func (c *respCache) get(key string) (e cachedReply, ok, admit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok = c.entries[key]; ok {
		c.hits++
		return e, true, false
	}
	c.misses++
	h := maphash.String(c.seed, key)
	slot := &c.seen[h%seenSlots]
	admit, *slot = *slot == h, h
	return e, false, admit
}

// put stores a reply, unless the key is already stored (two misses of one
// key raced) or the entry alone outgrows the budget, and then evicts the
// oldest entries until the budget holds.
func (c *respCache) put(key, shard string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok || len(key)+len(body) > c.budget {
		return
	}
	c.entries[key] = cachedReply{shard: shard, body: body}
	c.order = append(c.order, key)
	c.bytes += len(key) + len(body)
	for c.bytes > c.budget {
		old := c.order[0]
		c.order[0] = ""
		c.order = c.order[1:]
		c.bytes -= len(old) + len(c.entries[old].body)
		delete(c.entries, old)
		c.evictions++
	}
}

// keptReply keeps a copy of a relayed reply while it fits in one cache
// entry; over records that it did not.
type keptReply struct {
	body []byte
	over bool
}

func (k *keptReply) Write(p []byte) (int, error) {
	if k.over || len(k.body)+len(p) > maxCacheEntryBytes {
		k.over, k.body = true, nil
	} else {
		k.body = append(k.body, p...)
	}
	return len(p), nil
}

// respCacheStats is the cache's counters as /v1/fleet/stats reports them.
type respCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Bytes     int    `json:"bytes"`
	Entries   int    `json:"entries"`
}

func (c *respCache) stats() respCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return respCacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Bytes: c.bytes, Entries: len(c.entries)}
}

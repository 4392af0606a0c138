// Package fleet is the serving tier above gpuschedd: a router that
// consistent-hashes simulation requests by their canonical cache key onto
// N gpuschedd shards, so singleflight dedup and the on-disk result cache
// become fleet-wide properties instead of per-process ones.
//
// The pieces:
//
//   - Ring: rendezvous (highest-random-weight) hashing of cache keys onto
//     shards, with per-shard health state. Adding a shard moves ~1/N of
//     the key space; removing one moves only its own keys.
//   - Prober: periodic /readyz probes that mark shards down after
//     consecutive failures and back up on the first success.
//   - PeerCache: the fetch side of the peer-cache protocol
//     (GET /v1/cache/{addr}), wired into sim.Options.PeerFetch on each
//     shard so results that change owners migrate instead of resimulating.
//   - Router: the HTTP front door that forwards POST /v1/simulate by key
//     with bounded retry + failover, answers a key's later repeats from
//     its cache of the shards' attested replies, and aggregates fleet
//     stats and metrics.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"
)

// Shard is one gpuschedd backend: a stable name (its ring identity), a
// base URL, and mutable health state. The name, not the URL, feeds the
// hash, so a shard can move hosts without reshuffling the key space.
type Shard struct {
	// Name is the ring identity ("s0"), and the shard's label in the
	// X-Fleet-Shard header, the metrics and the fleet stats. Must be unique
	// in a ring.
	Name string
	// URL is the shard's base URL ("http://10.0.0.7:8080"), no trailing
	// slash.
	URL string

	// routed counts requests this router forwarded to the shard.
	routed atomic.Uint64

	// mu guards the health state: down, fails and lastErr.
	mu   sync.Mutex
	down bool
	// fails counts consecutive probe/forward failures.
	fails   int
	lastErr string
}

// Healthy reports whether the shard is currently considered up. A fresh
// shard starts healthy: the prober will demote it if the first probes
// fail, and optimism keeps a cold-started fleet routable immediately.
func (s *Shard) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.down
}

// LastError returns the most recent failure message ("" when none).
func (s *Shard) LastError() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Routed returns how many requests the router forwarded to this shard.
func (s *Shard) Routed() uint64 { return s.routed.Load() }

// noteSuccess resets the failure streak and marks the shard up.
// It reports whether this flipped the shard from down to up.
func (s *Shard) noteSuccess() (recovered bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recovered = s.down
	s.down = false
	s.fails = 0
	s.lastErr = ""
	return recovered
}

// failAfter is the consecutive probe or forward failures that mark a
// shard down.
const failAfter = 2

// noteFailure records one failed probe or forward; after failAfter
// consecutive failures the shard is marked down (rehashing its keys onto
// the surviving shards). It reports whether this call did the mark-down.
func (s *Shard) noteFailure(msg string) (wentDown bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fails++
	s.lastErr = msg
	if !s.down && s.fails >= failAfter {
		s.down = true
		return true
	}
	return false
}

// Ring places cache keys on shards by rendezvous (highest-random-weight)
// hashing: every (shard, key) pair gets a score and the healthy shard
// with the highest score owns the key. Unlike a bucketed ring, adding a
// shard moves exactly the keys the new shard now wins (~1/N of the
// space), and a downed shard's keys redistribute across all survivors
// instead of dogpiling its neighbor.
//
// The shard set is fixed at construction (a membership change is a
// restart); only health flips at runtime, so reads need no lock.
type Ring struct {
	shards []*Shard
}

// NewRing builds a ring over the given shards. Order is irrelevant to
// placement (scores, not positions, decide ownership).
func NewRing(shards []*Shard) *Ring {
	return &Ring{shards: shards}
}

// Shards returns the full membership in construction order.
func (r *Ring) Shards() []*Shard { return r.shards }

// score is the rendezvous weight of a (shard, key) pair: the first 8
// bytes of sha256(name, 0x00, key). sha256 keeps placement independent of
// Go's seeded map/string hashes — every router instance, every restart,
// computes the same owner for a key.
func score(name, key string) uint64 {
	h := sha256.New()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(key))
	var sum [sha256.Size]byte
	return binary.BigEndian.Uint64(h.Sum(sum[:0]))
}

// Candidates returns every shard in descending preference order for key:
// healthy shards by score, then down shards by score (the last resort
// when the whole fleet looks down — a probe may simply be stale).
func (r *Ring) Candidates(key string) []*Shard {
	type scored struct {
		s       *Shard
		w       uint64
		healthy bool
	}
	all := make([]scored, len(r.shards))
	for i, s := range r.shards {
		all[i] = scored{s, score(s.Name, key), s.Healthy()}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].healthy != all[j].healthy {
			return all[i].healthy
		}
		return all[i].w > all[j].w
	})
	out := make([]*Shard, len(all))
	for i, sc := range all {
		out[i] = sc.s
	}
	return out
}

// Owner returns the preferred shard for key (nil on an empty ring).
func (r *Ring) Owner(key string) *Shard {
	var (
		best        *Shard
		bestW       uint64
		bestHealthy bool
	)
	for _, s := range r.shards {
		w := score(s.Name, key)
		h := s.Healthy()
		if best == nil || (h && !bestHealthy) || (h == bestHealthy && w > bestW) {
			best, bestW, bestHealthy = s, w, h
		}
	}
	return best
}

// HealthyCount returns how many shards are currently up.
func (r *Ring) HealthyCount() int {
	n := 0
	for _, s := range r.shards {
		if s.Healthy() {
			n++
		}
	}
	return n
}

package fleet

import (
	"context"
	"io"
	"net/http"
	"time"

	"gpusched/internal/sim"
)

// maxCacheEntryBytes bounds one peer-served cache entry. Outcomes are a
// few KB of counters; anything bigger is a peer misbehaving.
const maxCacheEntryBytes = 4 << 20

// PeerCache is the fetch side of the peer-cache protocol: given the
// canonical key of a local miss, it asks each configured peer for the
// content-addressed entry (GET /v1/cache/{addr}) and verifies the payload
// against the key before trusting it. Wire Fetch into
// sim.Options.PeerFetch on a shard; the service then does
// fetch-before-simulate and stores the migrated entry locally.
type PeerCache struct {
	peers  []string // peer base URLs, tried in order
	client *http.Client
}

// NewPeerCache builds a client over the peer base URLs (no trailing
// slashes). timeout bounds each per-peer request; a whole fetch costs at
// most len(peers)×timeout, which must stay well under the cost of the
// simulation it avoids.
func NewPeerCache(peers []string, timeout time.Duration) *PeerCache {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &PeerCache{peers: peers, client: &http.Client{Timeout: timeout}}
}

// Fetch implements the sim.Options.PeerFetch contract: best-effort, ok
// only for a verified entry. Peers are tried in order; the first verified
// hit wins. Context cancellation stops the walk (the simulation request
// itself was abandoned).
func (p *PeerCache) Fetch(ctx context.Context, key string) (sim.Outcome, bool) {
	addr := sim.CacheAddr(key)
	for _, peer := range p.peers {
		if ctx.Err() != nil {
			return sim.Outcome{}, false
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/cache/"+addr, nil)
		if err != nil {
			continue
		}
		resp, err := p.client.Do(req)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			drainClose(resp.Body)
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxCacheEntryBytes))
		resp.Body.Close()
		if err != nil {
			continue
		}
		if out, ok := sim.DecodeCacheEntry(data, key); ok {
			return out, true
		}
	}
	return sim.Outcome{}, false
}

// drainClose reads what is left of a small error body before closing it,
// so the transport can reuse the connection: a body closed unread makes it
// hang up, and every miss would then dial a new one.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 4<<10)) //nolint:errcheck // best effort
	body.Close()
}

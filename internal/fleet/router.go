package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gpusched/internal/server"
	"gpusched/internal/sim"
)

// Config tunes the Router. Zero values select fleet-sane defaults.
type Config struct {
	// ProbeInterval is the health-probe period (0 = 1s).
	ProbeInterval time.Duration
	// OnHealthChange, when non-nil, observes shard mark-down/up
	// transitions (logging).
	OnHealthChange func(s *Shard, up bool)
}

const (
	// retries is how many additional candidates a failed forward tries, so
	// three shards see the request before it fails.
	retries = 2
	// backoff is the base delay before each retry; attempt k waits
	// k×backoff. Deliberately short: the fallback shard is healthy by the
	// ring's estimate, the pause only spaces out a thundering herd.
	backoff = 50 * time.Millisecond
)

// Router is the fleet front door: it owns the ring and the prober, and
// forwards requests to the owning shard by canonical cache key — so
// duplicate requests from any number of client connections land on one
// shard and coalesce in its singleflight/memo/disk layers. It keeps the
// shards' attested replies to keys forwarded more than once and answers
// later repeats itself.
//
// The API:
//
//	POST /v1/simulate     answer from the router cache, else route by key
//	                      with retry + failover
//	GET  /v1/fleet/stats  aggregated shard + routing stats (JSON)
//	GET  /readyz          503 unless ≥1 shard is healthy
//	GET  /metrics         router + per-shard Prometheus metrics
//
// Peers fetch cache entries from each other's shards directly, not
// through the router.
type Router struct {
	ring   *Ring
	client *http.Client
	prober *Prober
	mux    *http.ServeMux
	cache  *respCache

	failovers atomic.Uint64
	fwdErrors atomic.Uint64
}

// shardIdleConns is the router's idle-connection pool per shard. It is
// sized for the concurrency one router forwards at, so a shard is not
// redialed for every request past the transport's default of two.
const shardIdleConns = 64

// NewRouter builds a router over the shard set. Call Start to begin
// health probing and Close to stop it.
func NewRouter(shards []*Shard, cfg Config) *Router {
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = shardIdleConns
	rt := &Router{
		ring: NewRing(shards),
		// No client-level timeout: a forwarded simulation takes as long as
		// it takes (the shard's -sync-timeout bounds it), and the incoming
		// request's context cancels the forward when the client goes away.
		client: &http.Client{Transport: transport},
		cache:  newRespCache(),
	}
	rt.prober = NewProber(rt.ring, cfg.ProbeInterval, cfg.OnHealthChange)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", rt.handleSimulate)
	mux.HandleFunc("GET /v1/fleet/stats", rt.handleFleetStats)
	mux.HandleFunc("GET /readyz", rt.handleReady)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux = mux
	return rt
}

// Handler returns the HTTP entry point.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Ring exposes the ring (tests, stats).
func (rt *Router) Ring() *Ring { return rt.ring }

// Start begins health probing.
func (rt *Router) Start() { rt.prober.Start() }

// Close stops health probing.
func (rt *Router) Close() { rt.prober.Stop() }

var errNoShards = errors.New("fleet: no shards configured")

// retryableStatus reports whether a shard response should fail over to
// the next candidate: the shard itself is unhealthy or draining. Any
// other status is the request's own answer and is relayed as is.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout
}

// forward POSTs body to /v1/simulate on the best shard for key, failing
// over through the ring's candidate order with linear backoff. The caller
// owns the returned response body. Transport failures feed the shard's
// failure streak, so a dead shard is marked down by traffic even between
// probes.
func (rt *Router) forward(ctx context.Context, key string, body []byte) (*http.Response, *Shard, error) {
	cands := rt.ring.Candidates(key)
	if len(cands) == 0 {
		return nil, nil, errNoShards
	}
	attempts := retries + 1
	if attempts > len(cands) {
		attempts = len(cands)
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			rt.failovers.Add(1)
			select {
			case <-time.After(time.Duration(i) * backoff):
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
		}
		shard := cands[i]
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, shard.URL+"/v1/simulate", bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := rt.client.Do(req)
		if err != nil {
			shard.noteFailure("forward: " + err.Error())
			lastErr = err
			continue
		}
		if retryableStatus(resp.StatusCode) {
			drainClose(resp.Body)
			shard.noteFailure("forward: " + resp.Status)
			lastErr = fmt.Errorf("fleet: shard %s: %s", shard.Name, resp.Status)
			continue
		}
		shard.routed.Add(1)
		return resp, shard, nil
	}
	rt.fwdErrors.Add(1)
	return nil, nil, lastErr
}

// handleSimulate answers a stored key from the router cache. Otherwise
// it routes the request to its key's owner and streams the shard's
// response through verbatim; from a key's second forward on, it keeps a
// copy of a 200 reply the shard attests for this key and build
// (server.Attests) and stores it. Either way it stamps the routing
// headers so clients and load harnesses can see placement.
func (rt *Router) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, _, body, ok := server.ReadRequest(w, r)
	if !ok {
		return
	}
	key := req.Key()
	hit, ok, admit := rt.cache.get(key)
	if ok {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Fleet-Shard", hit.shard)
		w.Header().Set("X-Fleet-Key", key)
		w.Header().Set("X-Fleet-Cache", "hit")
		w.Write(hit.body) //nolint:errcheck // the response is already committed
		return
	}
	resp, shard, err := rt.forward(r.Context(), key, body)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "no_shard", "no shard could serve the request: %v", err)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("X-Fleet-Shard", shard.Name)
	w.Header().Set("X-Fleet-Key", key)
	w.Header().Set("X-Fleet-Cache", "miss")
	w.WriteHeader(resp.StatusCode)
	if !admit || resp.StatusCode != http.StatusOK || !server.Attests(resp.Header, key) {
		io.Copy(w, resp.Body) //nolint:errcheck // the response is already committed
		return
	}
	var kept keptReply
	if _, err := io.Copy(w, io.TeeReader(resp.Body, &kept)); err == nil && !kept.over {
		rt.cache.put(key, shard.Name, kept.body)
	}
}

func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	healthy := rt.ring.HealthyCount()
	if healthy == 0 {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "no_healthy_shards", "shards_healthy": 0})
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "shards_healthy": healthy})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# HELP gpurouter_shard_healthy Shard health as seen by the prober (1 = up).\n")
	fmt.Fprintf(w, "# TYPE gpurouter_shard_healthy gauge\n")
	for _, s := range rt.ring.Shards() {
		v := 0
		if s.Healthy() {
			v = 1
		}
		fmt.Fprintf(w, "gpurouter_shard_healthy{shard=%q} %d\n", s.Name, v)
	}
	fmt.Fprintf(w, "# HELP gpurouter_requests_routed_total Requests forwarded, by shard.\n")
	fmt.Fprintf(w, "# TYPE gpurouter_requests_routed_total counter\n")
	for _, s := range rt.ring.Shards() {
		fmt.Fprintf(w, "gpurouter_requests_routed_total{shard=%q} %d\n", s.Name, s.Routed())
	}
	server.WriteCounter(w, "gpurouter_failovers_total", "Forward attempts that fell over to a lower-preference shard.", rt.failovers.Load())
	server.WriteCounter(w, "gpurouter_forward_errors_total", "Forwards that exhausted every candidate.", rt.fwdErrors.Load())
	cs := rt.cache.stats()
	server.WriteCounter(w, "gpurouter_cache_hits_total", "Requests answered from the router cache.", cs.Hits)
	server.WriteCounter(w, "gpurouter_cache_misses_total", "Requests the router cache did not hold.", cs.Misses)
	server.WriteCounter(w, "gpurouter_cache_evictions_total", "Router cache entries evicted, oldest first, by the byte budget.", cs.Evictions)
	fmt.Fprintf(w, "# HELP gpurouter_cache_bytes Bytes of keys and replies the router cache holds.\n")
	fmt.Fprintf(w, "# TYPE gpurouter_cache_bytes gauge\n")
	fmt.Fprintf(w, "gpurouter_cache_bytes %d\n", cs.Bytes)
	fmt.Fprintf(w, "# HELP gpurouter_shards_healthy Healthy shards in the ring.\n")
	fmt.Fprintf(w, "# TYPE gpurouter_shards_healthy gauge\n")
	fmt.Fprintf(w, "gpurouter_shards_healthy %d\n", rt.ring.HealthyCount())
}

// handleFleetStats aggregates per-shard /v1/stats into the fleet view the
// load harness reports: fleet-wide dedup hit rate, per-shard balance, and
// routing and router-cache counters. `sim` sums the shards that answered
// (`shards_reporting` of them); `dedup_hit_rate` is null unless all did.
func (rt *Router) handleFleetStats(w http.ResponseWriter, r *http.Request) {
	shards := rt.ring.Shards()
	type shardView struct {
		Name      string     `json:"name"`
		URL       string     `json:"url"`
		Healthy   bool       `json:"healthy"`
		Ready     bool       `json:"ready"`
		Routed    uint64     `json:"routed"`
		LastError string     `json:"last_error,omitempty"`
		Sim       *sim.Stats `json:"sim,omitempty"`
		StatsErr  string     `json:"stats_error,omitempty"`
	}
	views := make([]shardView, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s *Shard) {
			defer wg.Done()
			v := shardView{Name: s.Name, URL: s.URL, Healthy: s.Healthy(), Routed: s.Routed(), LastError: s.LastError()}
			ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.URL+"/v1/stats", nil)
			if err == nil {
				var resp *http.Response
				resp, err = rt.client.Do(req)
				if err == nil {
					var payload server.StatsView
					err = json.NewDecoder(resp.Body).Decode(&payload)
					resp.Body.Close()
					if err == nil {
						v.Ready = payload.Ready
						st := payload.Sim
						v.Sim = &st
					}
				}
			}
			if err != nil {
				v.StatsErr = err.Error()
			}
			views[i] = v
		}(i, s)
	}
	wg.Wait()

	var agg sim.Stats
	var routedTotal uint64
	reporting := 0
	for _, v := range views {
		routedTotal += v.Routed
		if v.Sim == nil {
			continue
		}
		reporting++
		agg.Add(*v.Sim)
	}
	cs := rt.cache.stats()
	// A rate over some shards' counters is not the fleet's.
	var dedupRate any
	if reporting == len(shards) {
		dedupRate = sim.DedupRate(int(cs.Hits)+agg.Hits(), agg.Simulated)
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"fleet": map[string]any{
			"shards_total":     len(shards),
			"shards_healthy":   rt.ring.HealthyCount(),
			"shards_reporting": reporting,
			"requests_routed":  routedTotal,
			"failovers":        rt.failovers.Load(),
			"forward_errors":   rt.fwdErrors.Load(),
			"router_cache":     cs,
			"dedup_hit_rate":   dedupRate,
			"sim":              agg,
		},
		"shards": views,
	})
}

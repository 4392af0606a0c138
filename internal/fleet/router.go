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

	"gpusched/internal/sim"
)

// Config tunes the Router. Zero values select fleet-sane defaults.
type Config struct {
	// Retries is how many additional candidates a failed forward tries
	// (0 = default 2, so three shards see the request before it fails).
	Retries int
	// Backoff is the base delay before each retry; attempt k waits k×Backoff
	// (0 = 50ms). Deliberately short: the fallback shard is healthy by the
	// ring's estimate, the pause only spaces out a thundering herd.
	Backoff time.Duration
	// ProbeInterval is the health-probe period (0 = 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe (0 = ProbeInterval/2).
	ProbeTimeout time.Duration
	// FailAfter is the consecutive-failure mark-down threshold (0 = 2).
	FailAfter int
	// OnHealthChange, when non-nil, observes shard mark-down/up
	// transitions (logging).
	OnHealthChange func(s *Shard, up bool)
}

// maxRouterBody bounds router request bodies (matches the shard limit).
const maxRouterBody = 1 << 20

// Router is the fleet front door: it owns the ring and the prober, and
// forwards requests to the owning shard by canonical cache key — so
// duplicate requests from any number of client connections land on one
// shard and coalesce in its singleflight/memo/disk layers.
//
// The API:
//
//	POST /v1/simulate     route by key with retry + failover
//	GET  /v1/fleet/stats  aggregated shard + routing stats (JSON)
//	GET  /readyz          503 unless ≥1 shard is healthy
//	GET  /metrics         router + per-shard Prometheus metrics
//
// Peers fetch cache entries from each other's shards directly, not
// through the router.
type Router struct {
	ring   *Ring
	cfg    Config
	client *http.Client
	prober *Prober
	mux    *http.ServeMux

	failovers atomic.Uint64
	fwdErrors atomic.Uint64
}

// NewRouter builds a router over the shard set. Call Start to begin
// health probing and Close to stop it.
func NewRouter(shards []*Shard, cfg Config) *Router {
	if cfg.Retries <= 0 {
		cfg.Retries = 2
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 2
	}
	rt := &Router{
		ring: NewRing(shards),
		cfg:  cfg,
		// No client-level timeout: a forwarded simulation takes as long as
		// it takes (the shard's -sync-timeout bounds it), and the incoming
		// request's context cancels the forward when the client goes away.
		client: &http.Client{},
	}
	rt.prober = NewProber(rt.ring, cfg.ProbeInterval, cfg.ProbeTimeout, cfg.FailAfter, cfg.OnHealthChange)

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

// writeJSON/writeError mirror the shard-side envelope so clients see one
// error shape fleet-wide.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // the response is already committed
}

type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, map[string]apiError{"error": {Code: code, Message: fmt.Sprintf(format, args...)}})
}

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
	attempts := rt.cfg.Retries + 1
	if attempts > len(cands) {
		attempts = len(cands)
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			rt.failovers.Add(1)
			select {
			case <-time.After(time.Duration(i) * rt.cfg.Backoff):
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
			shard.noteFailure("forward: "+err.Error(), rt.cfg.FailAfter)
			lastErr = err
			continue
		}
		if retryableStatus(resp.StatusCode) {
			resp.Body.Close()
			shard.noteFailure("forward: "+resp.Status, rt.cfg.FailAfter)
			lastErr = fmt.Errorf("fleet: shard %s: %s", shard.Name, resp.Status)
			continue
		}
		shard.routed.Add(1)
		return resp, shard, nil
	}
	rt.fwdErrors.Add(1)
	return nil, nil, lastErr
}

// decodeBody reads and validates one simulation request, mirroring the
// shard's validation so obviously-bad requests bounce at the router.
func decodeBody(w http.ResponseWriter, r *http.Request) (req sim.Request, body []byte, ok bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRouterBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "validation", "reading body: %v", err)
		return req, nil, false
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "validation", "%v", err)
		return req, nil, false
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "validation", "%v", err)
		return req, nil, false
	}
	return req, body, true
}

// handleSimulate routes one request to its key's owner and relays the
// shard's response verbatim, stamping the routing headers so clients and
// load harnesses can see placement.
func (rt *Router) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, body, ok := decodeBody(w, r)
	if !ok {
		return
	}
	key := req.Key()
	resp, shard, err := rt.forward(r.Context(), key, body)
	if err != nil {
		writeError(w, http.StatusBadGateway, "no_shard", "no shard could serve the request: %v", err)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("X-Fleet-Shard", shard.Name)
	w.Header().Set("X-Fleet-Key", key)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // the response is already committed
}

func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	healthy := rt.ring.HealthyCount()
	if healthy == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "no_healthy_shards", "shards_healthy": 0})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "shards_healthy": healthy})
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
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("gpurouter_failovers_total", "Forward attempts that fell over to a lower-preference shard.", rt.failovers.Load())
	counter("gpurouter_forward_errors_total", "Forwards that exhausted every candidate.", rt.fwdErrors.Load())
	fmt.Fprintf(w, "# HELP gpurouter_shards_healthy Healthy shards in the ring.\n")
	fmt.Fprintf(w, "# TYPE gpurouter_shards_healthy gauge\n")
	fmt.Fprintf(w, "gpurouter_shards_healthy %d\n", rt.ring.HealthyCount())
}

// shardStatsPayload mirrors the shard's GET /v1/stats JSON (the fields
// the router aggregates).
type shardStatsPayload struct {
	Ready bool      `json:"ready"`
	Sim   sim.Stats `json:"sim"`
}

// handleFleetStats aggregates per-shard /v1/stats into the fleet view the
// load harness reports: fleet-wide dedup hit rate, per-shard balance, and
// routing counters.
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
					var payload shardStatsPayload
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
	for _, v := range views {
		routedTotal += v.Routed
		if v.Sim == nil {
			continue
		}
		agg.Simulated += v.Sim.Simulated
		agg.Reused += v.Sim.Reused
		agg.MemoHits += v.Sim.MemoHits
		agg.DiskHits += v.Sim.DiskHits
		agg.PeerHits += v.Sim.PeerHits
		agg.DiskEvictions += v.Sim.DiskEvictions
		agg.Evicted += v.Sim.Evicted
		agg.WallSeconds += v.Sim.WallSeconds
		agg.SimCycles += v.Sim.SimCycles
	}
	hits := agg.MemoHits + agg.DiskHits + agg.PeerHits
	total := hits + agg.Simulated
	rate := 0.0
	if total > 0 {
		rate = float64(hits) / float64(total)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"fleet": map[string]any{
			"shards_total":    len(shards),
			"shards_healthy":  rt.ring.HealthyCount(),
			"requests_routed": routedTotal,
			"failovers":       rt.failovers.Load(),
			"forward_errors":  rt.fwdErrors.Load(),
			"dedup_hit_rate":  rate,
			"sim":             agg,
		},
		"shards": views,
	})
}

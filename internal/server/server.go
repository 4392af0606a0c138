// Package server implements gpuschedd's HTTP front door over the
// internal/sim service layer: one synchronous simulation endpoint, the
// peer-cache read, a stats snapshot, Prometheus-format metrics, and a
// readiness flag that graceful shutdown flips.
//
// The API surface:
//
//	POST /v1/simulate      run one simulation; 200 + key and outcome
//	GET  /v1/cache/{addr}  content-addressed cache entry (peer-cache protocol)
//	GET  /v1/stats         JSON stats snapshot (router aggregation, load tests)
//	GET  /readyz           readiness; 503 once Shutdown began
//	GET  /metrics          Prometheus text format
//
// Request bodies are the flat sim.Request wire form (see internal/sim's
// JSON round-trip) plus the envelope field "timeout_ms" for a per-request
// deadline. Errors are structured JSON: {"error":{"code","message"}},
// with validation failures as 400, an expired deadline as 504 and
// simulation failures as 500.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"gpusched/internal/sim"
)

// Config tunes the daemon. Zero values select daemon-sane defaults.
type Config struct {
	// SyncTimeout bounds POST /v1/simulate requests (0 = 2m); a request's
	// own timeout_ms can only shorten it.
	SyncTimeout time.Duration
}

// Server wires a sim.Service into an http.Handler.
type Server struct {
	svc      *sim.Service
	mux      *http.ServeMux
	cfg      Config
	draining atomic.Bool

	// runSim is svc.Run; tests substitute a stand-in to hold a request in
	// flight without racing a real simulation.
	runSim func(context.Context, sim.Request) (sim.Outcome, error)
}

// New builds a Server over svc.
func New(svc *sim.Service, cfg Config) *Server {
	if cfg.SyncTimeout <= 0 {
		cfg.SyncTimeout = 2 * time.Minute
	}
	s := &Server{svc: svc, cfg: cfg, runSim: svc.Run}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("GET /v1/cache/{addr}", s.handleCacheGet)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the HTTP entry point.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown starts the graceful drain: readiness flips to 503 so probes
// and routers steer new work away. It returns at once; the caller bounds
// in-flight /v1/simulate calls with http.Server.Shutdown.
func (s *Server) Shutdown(context.Context) error {
	s.draining.Store(true)
	return nil
}

// Ready reports whether the shard should receive new work: it is not
// draining.
func (s *Server) Ready() bool { return !s.draining.Load() }

// apiError is the structured error envelope: code is machine-matchable
// ("validation", "deadline", ...), message is for humans.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // the response is already committed
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, map[string]apiError{"error": {Code: code, Message: fmt.Sprintf(format, args...)}})
}

// maxBodyBytes bounds request bodies; simulation requests are tiny.
const maxBodyBytes = 1 << 20

// decodeRequest reads a flat simulation-request body plus the envelope
// fields, writing a structured 400 itself when the payload is bad.
func decodeRequest(w http.ResponseWriter, r *http.Request) (req sim.Request, timeout time.Duration, ok bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "validation", "reading body: %v", err)
		return req, 0, false
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "validation", "%v", err)
		return req, 0, false
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "validation", "%v", err)
		return req, 0, false
	}
	var env struct {
		TimeoutMS int64 `json:"timeout_ms"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		writeError(w, http.StatusBadRequest, "validation", "envelope: %v", err)
		return req, 0, false
	}
	if env.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, "validation", "timeout_ms must be >= 0 (got %d)", env.TimeoutMS)
		return req, 0, false
	}
	return req, time.Duration(env.TimeoutMS) * time.Millisecond, true
}

// handleSimulate runs one request under the sync timeout (or the
// request's shorter timeout_ms) and returns the outcome in one round
// trip. The simulation runs on the request's context, so a client that
// disconnects cancels it.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, timeout, ok := decodeRequest(w, r)
	if !ok {
		return
	}
	if timeout <= 0 || timeout > s.cfg.SyncTimeout {
		timeout = s.cfg.SyncTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	out, err := s.runSim(ctx, req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]any{"key": req.Key(), "outcome": out})
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline", "simulation exceeded %v", timeout)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusInternalServerError, "canceled", "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "simulation", "%v", err)
	}
}

// handleReady is readiness: the signal health probes and routers act on.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleCacheGet serves one content-addressed result-cache entry — the
// peer-cache protocol. The response is the raw on-disk entry (version,
// canonical key, outcome); the fetching peer verifies it against the key
// it wanted, so a stale or corrupt entry degrades to a miss on its side.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	addr := r.PathValue("addr")
	data, ok := s.svc.CacheEntryBytes(addr)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no cache entry %q", addr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck // best-effort cache protocol
}

// statsView is the JSON shape of GET /v1/stats: everything a router or a
// load harness needs to aggregate fleet behaviour without parsing the
// Prometheus text form.
type statsView struct {
	Ready bool      `json:"ready"`
	Sim   sim.Stats `json:"sim"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsView{Ready: s.Ready(), Sim: s.svc.Stats()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeMetrics(w, s.svc.Stats(), s.Ready())
}

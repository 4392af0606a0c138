// Package server implements gpuschedd's HTTP front door over the
// internal/sim service layer: an asynchronous job API with a bounded
// admission queue (backpressure, not unbounded buffering), per-job
// deadlines, cancellation, Server-Sent-Events progress streaming,
// Prometheus-format metrics, and a graceful drain for shutdown.
//
// The API surface:
//
//	POST   /v1/jobs             submit a simulation; 202 + job, 429 when the queue is full
//	GET    /v1/jobs             list tracked jobs
//	GET    /v1/jobs/{id}        job status; includes the outcome once done
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events SSE lifecycle stream (queued/running/terminal)
//	POST   /v1/jobs:batch       synchronous batch; streams per-item completion as NDJSON
//	POST   /v1/simulate         synchronous simulation for small requests
//	GET    /v1/cache/{addr}     content-addressed cache entry (peer-cache protocol)
//	GET    /v1/stats            JSON stats snapshot (router aggregation, load tests)
//	GET    /v1/workloads        the workload suite, with class metadata
//	GET    /healthz             liveness; 200 for the life of the process
//	GET    /readyz              readiness; 503 while draining or the queue is saturated
//	GET    /metrics             Prometheus text format
//
// Request bodies are the flat sim.Request wire form (see internal/sim's
// JSON round-trip) plus the envelope field "timeout_ms" for a per-job
// deadline. Errors are structured JSON: {"error":{"code","message"}},
// with validation failures as 400 and simulation failures as 500.
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
	"gpusched/internal/workloads"
)

// Config tunes the daemon. Zero values select daemon-sane defaults.
type Config struct {
	// Workers is the number of job runner goroutines (0 = GOMAXPROCS). The
	// sim.Service's own worker pool additionally bounds simulator
	// concurrency, so this mostly bounds how many jobs can be mid-flight.
	Workers int
	// QueueDepth bounds the admission queue (0 = 64). A full queue
	// rejects submissions with 429 + Retry-After.
	QueueDepth int
	// DefaultTimeout is the per-job deadline applied when a submission
	// doesn't set timeout_ms (0 = no deadline).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (0 = uncapped).
	MaxTimeout time.Duration
	// ResultTTL is how long finished jobs stay queryable (0 = 15m).
	ResultTTL time.Duration
	// SyncTimeout bounds POST /v1/simulate requests (0 = 2m).
	SyncTimeout time.Duration
}

// Server wires the job Manager and the sim.Service into an http.Handler.
type Server struct {
	svc      *sim.Service
	jobs     *Manager
	mux      *http.ServeMux
	cfg      Config
	draining atomic.Bool
	batch    batchCounters
}

// batchCounters tracks the synchronous batch endpoint.
type batchCounters struct {
	batches     atomic.Uint64
	itemsDone   atomic.Uint64
	itemsFailed atomic.Uint64
}

// batchView is the JSON/metrics snapshot of the batch counters.
type batchView struct {
	Batches     uint64 `json:"batches"`
	ItemsDone   uint64 `json:"items_done"`
	ItemsFailed uint64 `json:"items_failed"`
}

func (s *Server) batchStats() batchView {
	return batchView{
		Batches:     s.batch.batches.Load(),
		ItemsDone:   s.batch.itemsDone.Load(),
		ItemsFailed: s.batch.itemsFailed.Load(),
	}
}

// New builds a Server (and starts its job runners) over svc.
func New(svc *sim.Service, cfg Config) *Server {
	if cfg.SyncTimeout <= 0 {
		cfg.SyncTimeout = 2 * time.Minute
	}
	s := &Server{svc: svc, jobs: newManager(svc, cfg), cfg: cfg}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("POST /v1/jobs:batch", s.handleBatch)
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("GET /v1/cache/{addr}", s.handleCacheGet)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the HTTP entry point.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown starts the graceful drain: health flips to 503, admission
// closes, queued and running jobs finish. When ctx expires first, live
// jobs are canceled. Call it after http.Server.Shutdown so no request
// races the closing queue.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	return s.jobs.Shutdown(ctx)
}

// apiError is the structured error envelope: code is machine-matchable
// ("validation", "queue_full", ...), message is for humans.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
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

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, timeout, ok := decodeRequest(w, r)
	if !ok {
		return
	}
	job, err := s.jobs.Submit(req, timeout)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "queue_full",
			"admission queue full (%d queued); retry later", s.jobs.stats().QueueDepth)
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "shutting_down", "daemon is draining; no new jobs")
	case err != nil:
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
	default:
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		writeJSON(w, http.StatusAccepted, job.view())
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.List()
	views := make([]jobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.view()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job %q (expired results are reaped after %v)",
			r.PathValue("id"), s.jobs.cfg.ResultTTL)
		return
	}
	writeJSON(w, http.StatusOK, job.view())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	state, found := s.jobs.Cancel(r.PathValue("id"))
	if !found {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": r.PathValue("id"), "state": state})
}

// handleSimulate is the synchronous path for small requests: run under
// the sync timeout and return the outcome in one round trip. Large sweeps
// belong on the job API.
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
	out, err := s.svc.Run(ctx, req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]any{"key": req.Key(), "outcome": out})
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline", "simulation exceeded %v; submit it as a job instead", timeout)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusInternalServerError, "canceled", "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "simulation", "%v", err)
	}
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	type wl struct {
		Name             string `json:"name"`
		ModeledOn        string `json:"modeled_on"`
		Class            string `json:"class"`
		InterCTALocality bool   `json:"inter_cta_locality"`
	}
	all := workloads.All()
	out := make([]wl, len(all))
	for i, x := range all {
		out[i] = wl{Name: x.Name, ModeledOn: x.ModeledOn, Class: string(x.Class), InterCTALocality: x.InterCTALocality}
	}
	writeJSON(w, http.StatusOK, map[string]any{"workloads": out})
}

// handleHealth is liveness: 200 for the life of the process, even while
// draining. A fleet router must keep /v1/jobs/{id} queries flowing to a
// draining shard (its in-flight jobs finish there); only *readiness*
// flips, steering new work away.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

// Ready reports whether the shard should receive new work, and why not.
// Not ready while draining (SIGTERM arrived, admission is closing) and
// while the admission queue is saturated (a 429 is the likely answer, so
// the router should prefer a sibling).
func (s *Server) Ready() (bool, string) {
	if s.draining.Load() {
		return false, "draining"
	}
	st := s.jobs.stats()
	if st.QueueDepth >= st.QueueCap {
		return false, "queue_saturated"
	}
	return true, "ok"
}

// handleReady is readiness: the signal health probes and routers act on.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	ok, reason := s.Ready()
	code := http.StatusOK
	if !ok {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"status": reason})
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
	Ready    bool      `json:"ready"`
	Draining bool      `json:"draining"`
	Jobs     jobsStats `json:"jobs"`
	Batch    batchView `json:"batch"`
	Sim      sim.Stats `json:"sim"`
}

// jobsStats is the JSON rendering of the Manager's counters.
type jobsStats struct {
	Queued     int    `json:"queued"`
	Running    int    `json:"running"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_capacity"`
	Tracked    int    `json:"tracked"`
	Submitted  uint64 `json:"submitted"`
	Rejected   uint64 `json:"rejected"`
	Done       uint64 `json:"done"`
	Failed     uint64 `json:"failed"`
	Canceled   uint64 `json:"canceled"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ready, _ := s.Ready()
	ms := s.jobs.stats()
	writeJSON(w, http.StatusOK, statsView{
		Ready:    ready,
		Draining: s.draining.Load(),
		Jobs: jobsStats{
			Queued: ms.Queued, Running: ms.Running,
			QueueDepth: ms.QueueDepth, QueueCap: ms.QueueCap,
			Tracked: ms.Tracked, Submitted: ms.Submitted, Rejected: ms.Rejected,
			Done: ms.Done, Failed: ms.Failed, Canceled: ms.Canceled,
		},
		Batch: s.batchStats(),
		Sim:   s.svc.Stats(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	ready, _ := s.Ready()
	writeMetrics(w, s.jobs.stats(), s.svc.Stats(), s.batchStats(), ready, s.jobs.cycles)
}

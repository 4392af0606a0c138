package server

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"gpusched/internal/sim"
)

// cycleBuckets are the upper bounds (simulated cycles) of the per-job
// makespan histogram. Tiny-scale smoke kernels land in the low buckets,
// full-scale paper workloads in the 1e6..1e8 range; the default 20M-cycle
// simulation bound keeps everything under the last finite bucket.
var cycleBuckets = []float64{1e4, 1e5, 1e6, 1e7, 1e8}

// histogram is a fixed-bucket Prometheus-style histogram. It stores
// per-bucket (non-cumulative) counts; rendering accumulates.
type histogram struct {
	bounds []float64

	mu     sync.Mutex
	counts []uint64 // len(bounds)+1; the last bucket is +Inf
	sum    float64
	n      uint64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// write renders the histogram in Prometheus text exposition format.
func (h *histogram) write(w io.Writer, name, help string) {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, n := h.sum, h.n
	h.mu.Unlock()

	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, b := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum)
	}
	cum += counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatBound(sum))
	fmt.Fprintf(w, "%s_count %d\n", name, n)
}

// formatBound renders a float the way Prometheus clients expect (no
// exponent for integral values below 1e15, shortest otherwise).
func formatBound(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeMetrics renders the full /metrics payload: job lifecycle counters
// and gauges from the Manager, request-satisfaction counters from the
// sim.Service, and the per-job simulated-cycle histogram.
func writeMetrics(w io.Writer, ms managerStats, ss sim.Stats, bs batchView, ready bool, cycles *histogram) {
	gauge := func(name, help string, v int) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	readyVal := 0
	if ready {
		readyVal = 1
	}
	gauge("gpuschedd_ready", "Readiness (1 = accepting new work; 0 while draining or the admission queue is saturated).", readyVal)

	counter("gpuschedd_batches_total", "Synchronous batches accepted on /v1/jobs:batch.", bs.Batches)
	fmt.Fprintf(w, "# HELP gpuschedd_batch_items_total Batch items completed, by outcome.\n")
	fmt.Fprintf(w, "# TYPE gpuschedd_batch_items_total counter\n")
	fmt.Fprintf(w, "gpuschedd_batch_items_total{outcome=\"done\"} %d\n", bs.ItemsDone)
	fmt.Fprintf(w, "gpuschedd_batch_items_total{outcome=\"failed\"} %d\n", bs.ItemsFailed)

	counter("gpuschedd_jobs_submitted_total", "Jobs accepted into the admission queue.", ms.Submitted)
	counter("gpuschedd_jobs_rejected_total", "Submissions rejected because the admission queue was full.", ms.Rejected)

	fmt.Fprintf(w, "# HELP gpuschedd_jobs_finished_total Jobs that reached a terminal state.\n")
	fmt.Fprintf(w, "# TYPE gpuschedd_jobs_finished_total counter\n")
	fmt.Fprintf(w, "gpuschedd_jobs_finished_total{state=\"done\"} %d\n", ms.Done)
	fmt.Fprintf(w, "gpuschedd_jobs_finished_total{state=\"failed\"} %d\n", ms.Failed)
	fmt.Fprintf(w, "gpuschedd_jobs_finished_total{state=\"canceled\"} %d\n", ms.Canceled)

	fmt.Fprintf(w, "# HELP gpuschedd_jobs Jobs currently in a live state.\n")
	fmt.Fprintf(w, "# TYPE gpuschedd_jobs gauge\n")
	fmt.Fprintf(w, "gpuschedd_jobs{state=\"queued\"} %d\n", ms.Queued)
	fmt.Fprintf(w, "gpuschedd_jobs{state=\"running\"} %d\n", ms.Running)

	gauge("gpuschedd_queue_depth", "Jobs waiting in the bounded admission queue.", ms.QueueDepth)
	gauge("gpuschedd_queue_capacity", "Capacity of the admission queue.", ms.QueueCap)
	gauge("gpuschedd_inflight_simulations", "Job simulations executing right now.", ms.Running)
	gauge("gpuschedd_jobs_tracked", "Jobs retained for status queries (bounded by the result TTL).", ms.Tracked)

	counter("gpuschedd_sim_simulated_total", "Actual simulator executions.", uint64(ss.Simulated))
	counter("gpuschedd_sim_memo_hits_total", "Requests coalesced into or satisfied by an in-memory flight.", uint64(ss.MemoHits))
	counter("gpuschedd_sim_disk_hits_total", "Requests satisfied by the on-disk result cache.", uint64(ss.DiskHits))
	counter("gpuschedd_sim_peer_hits_total", "Requests satisfied by a fleet peer's cache (fetch-before-simulate).", uint64(ss.PeerHits))
	counter("gpuschedd_simcache_evictions_total", "On-disk cache entries evicted by the entry/byte budget.", uint64(ss.DiskEvictions))
	counter("gpuschedd_sim_flights_evicted_total", "Completed flights evicted from the in-memory memo.", uint64(ss.Evicted))
	counter("gpuschedd_sim_cycles_total", "Simulated cycles produced by the cycle loop.", ss.SimCycles)
	fmt.Fprintf(w, "# HELP gpuschedd_sim_wall_seconds_total Wall-clock seconds spent inside the cycle loop.\n")
	fmt.Fprintf(w, "# TYPE gpuschedd_sim_wall_seconds_total counter\n")
	fmt.Fprintf(w, "gpuschedd_sim_wall_seconds_total %s\n", formatBound(ss.WallSeconds))

	cycles.write(w, "gpuschedd_job_cycles", "Simulated cycles per completed job.")
}

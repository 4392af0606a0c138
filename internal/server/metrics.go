package server

import (
	"fmt"
	"io"
	"strconv"

	"gpusched/internal/sim"
)

// writeMetrics renders the full /metrics payload: readiness and the
// sim.Service's request-satisfaction counters.
func writeMetrics(w io.Writer, ss sim.Stats, ready bool) {
	readyVal := 0
	if ready {
		readyVal = 1
	}
	fmt.Fprintf(w, "# HELP gpuschedd_ready Readiness (1 = accepting new work; 0 while draining).\n")
	fmt.Fprintf(w, "# TYPE gpuschedd_ready gauge\ngpuschedd_ready %d\n", readyVal)

	WriteCounter(w, "gpuschedd_sim_simulated_total", "Actual simulator executions.", uint64(ss.Simulated))
	WriteCounter(w, "gpuschedd_sim_reused_total", "Simulations built in the arrays of a finished machine.", uint64(ss.Reused))
	WriteCounter(w, "gpuschedd_sim_memo_hits_total", "Requests coalesced into or satisfied by an in-memory flight.", uint64(ss.MemoHits))
	WriteCounter(w, "gpuschedd_sim_disk_hits_total", "Requests satisfied by the on-disk result cache.", uint64(ss.DiskHits))
	WriteCounter(w, "gpuschedd_sim_peer_hits_total", "Requests satisfied by a fleet peer's cache (fetch-before-simulate).", uint64(ss.PeerHits))
	WriteCounter(w, "gpuschedd_simcache_evictions_total", "On-disk cache entries evicted by the entry/byte budget.", uint64(ss.DiskEvictions))
	WriteCounter(w, "gpuschedd_sim_flights_evicted_total", "Completed flights evicted from the in-memory memo.", uint64(ss.Evicted))
	WriteCounter(w, "gpuschedd_sim_cycles_total", "Simulated cycles produced by the cycle loop.", ss.SimCycles)
	fmt.Fprintf(w, "# HELP gpuschedd_sim_wall_seconds_total Wall-clock seconds spent inside the cycle loop.\n")
	fmt.Fprintf(w, "# TYPE gpuschedd_sim_wall_seconds_total counter\n")
	fmt.Fprintf(w, "gpuschedd_sim_wall_seconds_total %s\n", strconv.FormatFloat(ss.WallSeconds, 'g', -1, 64))
}

// WriteCounter renders one Prometheus counter: its HELP and TYPE lines
// and its value.
func WriteCounter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

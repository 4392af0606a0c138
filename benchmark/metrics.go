package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"sort"
	"strconv"
	"strings"

	"gpusched/internal/gpu"
)

// metricDef is one line of BENCHMARK.json's metric lists. The lists here
// are the program's own copy: every run prints exactly these names, and a
// test checks them against the file.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are measured with tracing off. Every workload reports every one.
// A pass is one round of the workload's fixed items; wall_s and alloc_mb
// add up the median of each kind of item. The host-time bounds
// are as wide as BENCHMARK.json allows because the 2-CPU sandbox this was
// sized on slows down by a third or more for a minute or two every few
// minutes (README.md, "Baseline"); alloc_mb repeats to a tenth of a percent.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"sim_cycles_per_s", "cycles/s", "higher", 0.25},
	{"sim_instr_per_s", "instr/s", "higher", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
}

// perLayer come from the traced run. A metric a workload cannot measure
// reads 0 there. Counts are per pass; *_cpu_share is the layer's fraction
// of the CPU profile's samples.
var perLayer = []metricDef{
	{Name: "workloads.build_s", Unit: "s", Better: "lower"},
	{Name: "workloads.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "gpu.new_s", Unit: "s", Better: "lower"},
	{Name: "gpu.run_s", Unit: "s", Better: "lower"},
	{Name: "gpu.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "gpu.cycles", Unit: "count", Better: "lower"},
	{Name: "gpu.ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "parexec.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sm.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sm.issue_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sm.ldst_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sm.instr_issued", Unit: "count", Better: "lower"},
	{Name: "sm.active_cycles", Unit: "count", Better: "lower"},
	{Name: "sm.stall_scoreboard_cycles", Unit: "count", Better: "lower"},
	{Name: "sm.stall_ldst_full_cycles", Unit: "count", Better: "lower"},
	{Name: "sm.stall_barrier_cycles", Unit: "count", Better: "lower"},
	{Name: "sm.ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "mem.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "mem.l1_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "mem.xbar_l2_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "mem.dram_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "mem.l1_accesses", Unit: "count", Better: "lower"},
	{Name: "mem.l1_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mem.l1_mshr_merge_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mem.l2_accesses", Unit: "count", Better: "lower"},
	{Name: "mem.l2_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mem.dram_reads", Unit: "count", Better: "lower"},
	{Name: "mem.dram_row_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mem.dram_queue_cycles_avg", Unit: "cycles", Better: "lower"},
	{Name: "mem.load_latency_cycles_avg", Unit: "cycles", Better: "lower"},
	{Name: "mem.ns_per_request", Unit: "ns", Better: "lower"},
	{Name: "core.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "core.ctas_completed", Unit: "count", Better: "higher"},
	{Name: "core.ctas_drained", Unit: "count", Better: "lower"},
	{Name: "core.cta_limit_median", Unit: "count", Better: "lower"},
	{Name: "runtime.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_count", Unit: "count", Better: "lower"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "process.cpu_s_over_wall_s", Unit: "ratio", Better: "lower"},
	{Name: "sim.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.key_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.run_memo_hit_us", Unit: "us", Better: "lower"},
	{Name: "sim.run_disk_hit_us", Unit: "us", Better: "lower"},
	{Name: "sim.run_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.encode_entry_us", Unit: "us", Better: "lower"},
	{Name: "sim.decode_entry_us", Unit: "us", Better: "lower"},
	{Name: "sim.simulated", Unit: "count", Better: "lower"},
	{Name: "sim.memo_hits", Unit: "count", Better: "higher"},
	{Name: "sim.disk_hits", Unit: "count", Better: "higher"},
	{Name: "sim.peer_hits", Unit: "count", Better: "higher"},
	{Name: "sim.memo_evictions", Unit: "count", Better: "lower"},
	{Name: "sim.disk_evictions", Unit: "count", Better: "lower"},
	{Name: "sim.dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sim.simwall_over_wall", Unit: "ratio", Better: "higher"},
	{Name: "harness.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "harness.fig8_s", Unit: "s", Better: "lower"},
	{Name: "harness.fig9_s", Unit: "s", Better: "lower"},
	{Name: "harness.fig6_s", Unit: "s", Better: "lower"},
	{Name: "harness.render_s", Unit: "s", Better: "lower"},
	{Name: "harness.lookups", Unit: "count", Better: "lower"},
	{Name: "harness.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "server.handle_hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.handle_miss_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.encode_outcome_us", Unit: "us", Better: "lower"},
	{Name: "server.responses_5xx", Unit: "count", Better: "lower"},
	{Name: "server.rejected_429", Unit: "count", Better: "lower"},
	{Name: "fleet.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "fleet.route_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "fleet.ring_owner_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.peer_fetch_us", Unit: "us", Better: "lower"},
	{Name: "fleet.failovers", Unit: "count", Better: "lower"},
	{Name: "fleet.shard_balance", Unit: "ratio", Better: "lower"},
	{Name: "client.req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.req_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.req_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.rtt_hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "client.rtt_miss_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "client.idle_ratio", Unit: "ratio", Better: "lower"},
	{Name: "other.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fidelity.bcs_geomean_speedup", Unit: "x", Better: "higher"},
	{Name: "fidelity.bcs_dram_reads_saved", Unit: "ratio", Better: "higher"},
	{Name: "fidelity.baws_over_gto", Unit: "x", Better: "higher"},
	{Name: "fidelity.lcs_geomean_speedup", Unit: "x", Better: "higher"},
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// perPass adds up, over the kinds of item, the median and the quartiles of
// one sampled quantity: what one pass costs. A single slow sample moves it
// less than it would move a median over whole passes, of which a run has
// only a few.
func (ph *phase) perPass(samples func(*kindSamples) []float64) summary {
	s := summary{N: int(ph.passes())}
	for _, k := range ph.kinds {
		v := samples(k)
		s.Median += median(v)
		s.Q1 += quantile(v, 0.25)
		s.Q3 += quantile(v, 0.75)
	}
	return s
}

// passSeconds is the host time of one pass.
func (ph *phase) passSeconds() summary {
	return ph.perPass(func(k *kindSamples) []float64 { return k.wall })
}

// passWork is the simulated work one pass delivers: per kind, the median
// over its samples. A simulation's counts repeat exactly; a block of
// fleet-serve requests delivers a little more or less with the shapes its
// repeats happen to draw.
func (ph *phase) passWork() (cycles, instr float64) {
	for _, k := range ph.kinds {
		cycles += median(k.cycles)
		instr += median(k.instr)
	}
	return cycles, instr
}

// passes is how many passes the section made, fractions of a last,
// unfinished pass included.
func (ph *phase) passes() float64 {
	n, kinds := 0, 0
	for _, k := range ph.kinds {
		n += len(k.wall)
		kinds++
	}
	if kinds == 0 {
		return 0
	}
	return float64(n) / float64(kinds)
}

// digest is the sha256 over every kind's canonical result, in kind order.
func digest(refs map[string][]byte) string {
	h := sha256.New()
	for _, n := range sortedKeys(refs) {
		h.Write([]byte(n))
		h.Write([]byte{0})
		h.Write(refs[n])
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// endToEndValues computes the end-to-end metrics of an untraced section.
func endToEndValues(ph *phase, setupS []float64) map[string]summary {
	wall := ph.passSeconds()
	cycles, instr := ph.passWork()
	rate := func(work float64) summary {
		// A slow pass is a low rate: the quartiles swap.
		return summary{Median: work / wall.Median, Q1: work / wall.Q3, Q3: work / wall.Q1, N: wall.N}
	}
	return map[string]summary{
		"setup_s":          summarize(setupS, true),
		"wall_s":           wall,
		"sim_cycles_per_s": rate(cycles),
		"sim_instr_per_s":  rate(instr),
		"alloc_mb":         ph.perPass(func(k *kindSamples) []float64 { return k.allocMB }),
	}
}

// sumResults adds up the counters of the simulations one pass ran, and
// collects the CTA limits they settled on.
func sumResults(ph *phase) (total gpu.Result, latencyWeighted float64, limits []float64) {
	for _, name := range sortedKeys(ph.kinds) {
		first := ph.kinds[name].first
		for _, r := range first.simulated {
			total.Cycles += r.Cycles
			total.InstrIssued += r.InstrIssued
			total.Core.ActiveCycles += r.Core.ActiveCycles
			total.Core.StallScoreboard += r.Core.StallScoreboard
			total.Core.StallLDSTFull += r.Core.StallLDSTFull
			total.Core.StallBarrier += r.Core.StallBarrier
			total.Core.CTAsCompleted += r.Core.CTAsCompleted
			total.Core.CTAsDrained += r.Core.CTAsDrained
			total.L1.Add(&r.L1)
			total.L2.Add(&r.L2)
			total.DRAM.Add(&r.DRAM)
			latencyWeighted += r.AvgMemLatency * float64(r.L1.Accesses)
		}
		for _, l := range first.limits {
			if l > 0 {
				limits = append(limits, float64(l))
			}
		}
	}
	return total, latencyWeighted, limits
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerValues computes the per-layer metrics of a traced section from
// its spans, its CPU profile and the counters its results carry. untraced
// is the section measured just before with tracing off.
func perLayerValues(ph, untraced *phase, tr *tracer, profile []stackSample) (map[string]float64, error) {
	m := map[string]float64{}
	passes := ph.passes()

	// Spans recorded around the layers' public calls.
	m["workloads.build_s"] = median(tr.durations("workloads", "build"))
	m["gpu.new_s"] = median(tr.durations("gpu", "new"))
	m["gpu.run_s"] = median(tr.durations("gpu", "run"))
	for _, fig := range figsIDs {
		m["harness."+fig+"_s"] = median(tr.durations("harness", fig))
	}
	for _, d := range tr.durations("harness", "render") {
		m["harness.render_s"] += d / passes
	}
	routers, shards := tr.byItem("fleet", "simulate"), tr.byItem("server", "simulate")
	var overheadUS, handleHitUS, handleMissMS []float64
	for _, class := range []string{"hit", "miss"} {
		for item, client := range tr.byItem("client", class) {
			router, ok1 := routers[item]
			shard, ok2 := shards[item]
			if !ok1 || !ok2 || client.EndNS == 0 {
				continue
			}
			overheadUS = append(overheadUS, (router.seconds()-shard.seconds())*1e6)
			if class == "hit" {
				handleHitUS = append(handleHitUS, shard.seconds()*1e6)
			} else {
				handleMissMS = append(handleMissMS, shard.seconds()*1e3)
			}
		}
	}
	m["fleet.route_overhead_us_p50"] = median(overheadUS)
	m["server.handle_hit_us_p50"] = median(handleHitUS)
	m["server.handle_miss_ms_p50"] = median(handleMissMS)

	// The CPU profile, one layer per sample.
	cpu, totalCPU, err := cpuShares(profile)
	if err != nil {
		return nil, err
	}
	for _, layer := range []string{"workloads", "gpu", "parexec", "sm", "mem", "core", "runtime", "sim", "harness", "server", "fleet", "other"} {
		m[layer+".cpu_share"] = ratio(cpu[layer], totalCPU)
	}
	m["sm.issue_cpu_share"] = ratio(cpu["sm.issue"], totalCPU)
	m["sm.ldst_cpu_share"] = ratio(cpu["sm.ldst"], totalCPU)
	m["mem.l1_cpu_share"] = ratio(cpu["mem.l1"], totalCPU)
	m["mem.xbar_l2_cpu_share"] = ratio(cpu["mem.xbar_l2"], totalCPU)
	m["mem.dram_cpu_share"] = ratio(cpu["mem.dram"], totalCPU)

	// Work counts, from the results of the simulations one pass ran.
	total, latencyWeighted, limits := sumResults(ph)
	m["gpu.cycles"] = float64(total.Cycles)
	m["sm.instr_issued"] = float64(total.InstrIssued)
	m["sm.active_cycles"] = float64(total.Core.ActiveCycles)
	m["sm.stall_scoreboard_cycles"] = float64(total.Core.StallScoreboard)
	m["sm.stall_ldst_full_cycles"] = float64(total.Core.StallLDSTFull)
	m["sm.stall_barrier_cycles"] = float64(total.Core.StallBarrier)
	m["mem.l1_accesses"] = float64(total.L1.Accesses)
	m["mem.l1_hit_ratio"] = total.L1.HitRate()
	m["mem.l1_mshr_merge_ratio"] = ratio(float64(total.L1.MSHRMerges), float64(total.L1.Accesses))
	m["mem.l2_accesses"] = float64(total.L2.Accesses)
	m["mem.l2_hit_ratio"] = total.L2.HitRate()
	m["mem.dram_reads"] = float64(total.DRAM.Reads)
	m["mem.dram_row_hit_ratio"] = total.DRAM.RowHitRate()
	m["mem.dram_queue_cycles_avg"] = total.DRAM.AvgQueueLatency()
	m["mem.load_latency_cycles_avg"] = ratio(latencyWeighted, float64(total.L1.Accesses))
	m["core.ctas_completed"] = float64(total.Core.CTAsCompleted)
	m["core.ctas_drained"] = float64(total.Core.CTAsDrained)
	m["core.cta_limit_median"] = median(limits)
	// Host CPU time of a layer per unit of its simulated work.
	perPassCPU := func(layer string) float64 { return ratio(cpu[layer], passes) * 1e9 }
	m["gpu.ns_per_cycle"] = ratio(perPassCPU("gpu"), float64(total.Cycles))
	m["sm.ns_per_instr"] = ratio(perPassCPU("sm"), float64(total.InstrIssued))
	m["mem.ns_per_request"] = ratio(perPassCPU("mem"), float64(total.L1.Accesses))

	// The runtime and the process.
	m["runtime.gc_count"] = ph.perPass(func(k *kindSamples) []float64 { return k.gcs }).Median
	m["process.peak_rss_mb"] = peakRSSMB()
	m["process.cpu_s_over_wall_s"] = ratio(ph.cpuS, ph.wallS)

	// What the sim.Service behind the items did, per pass.
	svc := ph.svc
	hits := float64(svc.MemoHits + svc.DiskHits + svc.PeerHits)
	m["sim.simulated"] = float64(svc.Simulated) / passes
	m["sim.memo_hits"] = float64(svc.MemoHits) / passes
	m["sim.disk_hits"] = float64(svc.DiskHits) / passes
	m["sim.peer_hits"] = float64(svc.PeerHits) / passes
	m["sim.memo_evictions"] = float64(svc.Evicted) / passes
	m["sim.disk_evictions"] = float64(svc.DiskEvictions) / passes
	m["sim.dedup_ratio"] = ratio(hits, hits+float64(svc.Simulated))
	m["sim.simwall_over_wall"] = ratio(svc.WallSeconds, ph.itemsS)
	if _, ok := ph.kinds["figs"]; ok {
		m["harness.lookups"] = float64(svc.Simulated+svc.MemoHits) / passes
		m["harness.memo_hit_ratio"] = ratio(float64(svc.MemoHits), float64(svc.Simulated+svc.MemoHits))
	}

	// The clients of fleet-serve.
	if all := ph.req.all(); len(all) > 0 {
		m["client.req_per_s"] = ratio(float64(len(all)), ph.itemsS)
		m["client.req_p50_ms"] = median(all)
		m["client.req_p99_ms"] = quantile(all, float64(tailPercentile(len(all)))/100)
		m["client.rtt_hit_us_p50"] = median(ph.req.hitMS) * 1e3
		m["client.rtt_miss_ms_p50"] = median(ph.req.missMS)
		m["client.idle_ratio"] = ratio(ph.req.idleS, ph.req.idleS+ph.req.busyS)
		m["server.responses_5xx"] = float64(ph.req.http5xx)
		m["server.rejected_429"] = float64(ph.req.http429)
	}

	m["trace.overhead_ratio"] = ratio(ph.passSeconds().Median, untraced.passSeconds().Median)
	return m, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

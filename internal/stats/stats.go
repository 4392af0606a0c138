// Package stats holds the counters the simulator accumulates and the small
// numeric helpers (rates, speedups, geometric means) the experiment harness
// reports with. Counters are plain fields grouped per subsystem: the cycle
// loop increments them directly, with no registry indirection on the hot
// path.
package stats

import (
	"fmt"
	"math"
)

// Core aggregates per-SM counters.
type Core struct {
	// Cycles the core was active (from first CTA arrival to last completion).
	ActiveCycles uint64
	// InstrIssued counts warp instructions issued (all pipelines).
	InstrIssued uint64
	// ThreadInstr counts lane-instructions (instr weighted by active lanes),
	// the metric hardware counters report as executed instructions.
	ThreadInstr uint64
	// IssueStallCycles counts scheduler slots that found no ready warp.
	IssueStallCycles uint64
	// StallScoreboard counts warps skipped because of pending operands.
	StallScoreboard uint64
	// StallLDSTFull sums two things. One is the stalled scheduler slots
	// attributed to a structural hazard: the warp's instruction was refused
	// by a full LDST queue or pending-load table, or waits on the SFU
	// initiation interval. The other is the cycles in which the L1 refused
	// the LDST unit's head transaction, one per cycle until it goes through,
	// whether the SM ticked that cycle or was parked (the sm package's
	// ldstUnit.tickGlobal and SM.Counters).
	StallLDSTFull uint64
	// StallBarrier counts warps skipped while waiting at a barrier.
	StallBarrier uint64
	// StallDrain counts scheduler slots whose preferred warp belonged to a
	// CTA draining for preemption (issue suppressed by the drain protocol).
	StallDrain uint64
	// CTAsCompleted counts CTAs retired by this core.
	CTAsCompleted uint64
	// CTAsDrained counts CTAs evicted by preemption drains before finishing
	// (distinct from CTAsCompleted; the evicted CTA is re-dispatched later).
	CTAsDrained uint64
	// SharedAccesses and SharedConflictPasses track scratchpad traffic;
	// passes > accesses indicates serialization from bank conflicts.
	SharedAccesses       uint64
	SharedConflictPasses uint64
}

// Add accumulates other into c (for summing per-core counters).
func (c *Core) Add(other *Core) {
	c.ActiveCycles += other.ActiveCycles
	c.InstrIssued += other.InstrIssued
	c.ThreadInstr += other.ThreadInstr
	c.IssueStallCycles += other.IssueStallCycles
	c.StallScoreboard += other.StallScoreboard
	c.StallLDSTFull += other.StallLDSTFull
	c.StallBarrier += other.StallBarrier
	c.StallDrain += other.StallDrain
	c.CTAsCompleted += other.CTAsCompleted
	c.CTAsDrained += other.CTAsDrained
	c.SharedAccesses += other.SharedAccesses
	c.SharedConflictPasses += other.SharedConflictPasses
}

// Cache aggregates hit/miss counters for one cache (or one level summed).
type Cache struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
	// MSHRMerges counts misses folded into an already-pending line.
	MSHRMerges uint64
	// MSHRStalls counts accesses rejected because no MSHR was free.
	MSHRStalls uint64
	// Evictions counts replaced lines; WriteBacks the dirty subset.
	Evictions  uint64
	WriteBacks uint64
}

// HitRate returns hits/accesses, or 0 for an untouched cache.
func (c *Cache) HitRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Accesses)
}

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Add accumulates other into c (for summing per-core caches).
func (c *Cache) Add(other *Cache) {
	c.Accesses += other.Accesses
	c.Hits += other.Hits
	c.Misses += other.Misses
	c.MSHRMerges += other.MSHRMerges
	c.MSHRStalls += other.MSHRStalls
	c.Evictions += other.Evictions
	c.WriteBacks += other.WriteBacks
}

// DRAM aggregates memory-controller counters for one channel (or all summed).
type DRAM struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64
	// BusyCycles counts cycles the data bus was transferring.
	BusyCycles uint64
	// QueueLatencySum accumulates per-request cycles spent queued before
	// service, for mean-latency reporting.
	QueueLatencySum uint64
	// ServicedRequests is the denominator for QueueLatencySum.
	ServicedRequests uint64
}

// RowHitRate returns the fraction of activations avoided by open rows.
func (d *DRAM) RowHitRate() float64 {
	total := d.RowHits + d.RowMisses
	if total == 0 {
		return 0
	}
	return float64(d.RowHits) / float64(total)
}

// AvgQueueLatency returns mean cycles a request waited before service.
func (d *DRAM) AvgQueueLatency() float64 {
	if d.ServicedRequests == 0 {
		return 0
	}
	return float64(d.QueueLatencySum) / float64(d.ServicedRequests)
}

// Add accumulates other into d.
func (d *DRAM) Add(other *DRAM) {
	d.Reads += other.Reads
	d.Writes += other.Writes
	d.RowHits += other.RowHits
	d.RowMisses += other.RowMisses
	d.BusyCycles += other.BusyCycles
	d.QueueLatencySum += other.QueueLatencySum
	d.ServicedRequests += other.ServicedRequests
}

// Kernel aggregates per-kernel completion data for concurrent-kernel
// experiments.
type Kernel struct {
	Name string
	// LaunchCycle and DoneCycle bound the kernel's lifetime.
	LaunchCycle uint64
	DoneCycle   uint64
	// InstrIssued counts instructions issued on behalf of this kernel.
	InstrIssued uint64
	CTAs        int
	// Evicted counts drain-preemption evictions of this kernel's CTAs (each
	// evicted CTA restarts from scratch on re-dispatch, so Evicted is also
	// the number of wasted partial executions).
	Evicted int
}

// Duration returns the kernel's makespan in cycles.
func (k *Kernel) Duration() uint64 {
	if k.DoneCycle < k.LaunchCycle {
		return 0
	}
	return k.DoneCycle - k.LaunchCycle
}

// IPC returns instructions per cycle over n cycles (0 if n is 0).
func IPC(instr, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(instr) / float64(cycles)
}

// Speedup returns newIPC/baseIPC, or 0 when the baseline is degenerate.
func Speedup(baseCycles, newCycles uint64) float64 {
	if newCycles == 0 {
		return 0
	}
	return float64(baseCycles) / float64(newCycles)
}

// GeoMean returns the geometric mean of vs, ignoring non-positive entries
// (a non-positive speedup indicates a failed run and would poison the mean).
func GeoMean(vs []float64) float64 {
	sum := 0.0
	n := 0
	for _, v := range vs {
		if v <= 0 {
			continue
		}
		sum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// HarmonicMean returns the harmonic mean of vs (used for multi-kernel
// fairness-weighted throughput), ignoring non-positive entries.
func HarmonicMean(vs []float64) float64 {
	sum := 0.0
	n := 0
	for _, v := range vs {
		if v <= 0 {
			continue
		}
		sum += 1 / v
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(n) / sum
}

// NormalizedTurnaround returns T_shared/T_alone for one kernel of a
// multiprogrammed run: 1.0 means sharing cost the kernel nothing, larger is
// worse. Returns 0 when the solo baseline is degenerate.
func NormalizedTurnaround(alone, shared uint64) float64 {
	if alone == 0 {
		return 0
	}
	return float64(shared) / float64(alone)
}

// ANTT returns the average normalized turnaround time — the arithmetic mean
// of per-kernel NormalizedTurnaround values (Eyerman & Eeckhout's
// multiprogram latency metric; lower is better, 1.0 is the no-interference
// floor). Non-positive entries (failed runs) are ignored.
func ANTT(nts []float64) float64 {
	sum := 0.0
	n := 0
	for _, v := range nts {
		if v <= 0 {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// STP returns system throughput for the same normalized turnarounds:
// Σ T_alone/T_shared, i.e. how many kernels' worth of progress the shared
// run sustained per unit time (higher is better, bounded by the kernel
// count). Non-positive entries are ignored.
func STP(nts []float64) float64 {
	sum := 0.0
	for _, v := range nts {
		if v <= 0 {
			continue
		}
		sum += 1 / v
	}
	return sum
}

// Pct formats a fraction as a percentage string with one decimal.
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// Package trace samples a running simulation into a timeline: per-epoch
// IPC, occupancy, and memory-system rates. Timelines make scheduling
// behaviour visible — LCS's sampling epoch and throttle point, BCS's gang
// waves, the phase change when a mixed-CKE kernel drains — and export as
// CSV for plotting.
package trace

import (
	"fmt"
	"io"

	"gpusched/internal/gpu"
	"gpusched/internal/stats"
)

// Sample is one epoch snapshot. Rates are over the epoch, not cumulative.
type Sample struct {
	// Cycle is the epoch start.
	Cycle uint64
	// IPC is warp instructions per cycle across the GPU.
	IPC float64
	// ResidentCTAs counts CTAs on all cores at the sample instant.
	ResidentCTAs int
	// ActiveCores counts cores holding at least one CTA.
	ActiveCores int
	// L1MissRate is misses/accesses during the epoch (0 if no accesses).
	L1MissRate float64
	// DRAMReads counts line fetches during the epoch.
	DRAMReads uint64
	// DRAMRowHitRate is the epoch's row-buffer hit fraction.
	DRAMRowHitRate float64
}

// Timeline is the sampled history of one simulation.
type Timeline struct {
	// Epoch is the sampling period in cycles.
	Epoch uint64
	// Samples are in time order.
	Samples []Sample
}

// Attach registers a sampler on g with the given epoch (cycles). Call
// before g.Run; the returned Timeline fills as the simulation advances.
func Attach(g *gpu.GPU, epoch uint64) *Timeline {
	tl := &Timeline{Epoch: epoch}
	var prevInstr uint64
	var prevL1 stats.Cache
	var prevDRAM stats.DRAM
	var prevCycle uint64
	first := true
	g.SetEpochHook(epoch, func(now uint64) {
		var instr uint64
		var l1 stats.Cache
		resident, active := 0, 0
		for i := 0; i < g.NumCores(); i++ {
			c := g.Core(i)
			instr += c.InstrIssued()
			cl1 := c.L1Stats(now)
			l1.Add(&cl1)
			if n := c.ResidentCTAs(); n > 0 {
				resident += n
				active++
			}
		}
		dram := g.MemSystem().DRAMStats()
		if !first {
			dc := now - prevCycle
			s := Sample{
				Cycle:        prevCycle,
				ResidentCTAs: resident,
				ActiveCores:  active,
				DRAMReads:    dram.Reads - prevDRAM.Reads,
			}
			if dc > 0 {
				s.IPC = float64(instr-prevInstr) / float64(dc)
			}
			if acc := l1.Accesses - prevL1.Accesses; acc > 0 {
				s.L1MissRate = float64(l1.Misses-prevL1.Misses) / float64(acc)
			}
			rowTotal := (dram.RowHits + dram.RowMisses) - (prevDRAM.RowHits + prevDRAM.RowMisses)
			if rowTotal > 0 {
				s.DRAMRowHitRate = float64(dram.RowHits-prevDRAM.RowHits) / float64(rowTotal)
			}
			tl.Samples = append(tl.Samples, s)
		}
		first = false
		prevInstr, prevL1, prevDRAM, prevCycle = instr, l1, dram, now
	})
	return tl
}

// WriteCSV renders the timeline.
func (tl *Timeline) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "cycle,ipc,resident_ctas,active_cores,l1_miss_rate,dram_reads,dram_row_hit_rate"); err != nil {
		return err
	}
	for _, s := range tl.Samples {
		if _, err := fmt.Fprintf(w, "%d,%.4f,%d,%d,%.4f,%d,%.4f\n",
			s.Cycle, s.IPC, s.ResidentCTAs, s.ActiveCores,
			s.L1MissRate, s.DRAMReads, s.DRAMRowHitRate); err != nil {
			return err
		}
	}
	return nil
}

// PeakIPC returns the highest epoch IPC (0 for an empty timeline).
func (tl *Timeline) PeakIPC() float64 {
	peak := 0.0
	for _, s := range tl.Samples {
		if s.IPC > peak {
			peak = s.IPC
		}
	}
	return peak
}

// MeanResident returns the average resident CTA count over the run.
func (tl *Timeline) MeanResident() float64 {
	if len(tl.Samples) == 0 {
		return 0
	}
	sum := 0
	for _, s := range tl.Samples {
		sum += s.ResidentCTAs
	}
	return float64(sum) / float64(len(tl.Samples))
}

package harness

import (
	"fmt"
	"sort"

	"gpusched/internal/gpu"
	"gpusched/internal/mem"
	"gpusched/internal/sim"
	"gpusched/internal/sm"
	"gpusched/internal/stats"
	"gpusched/internal/workloads"
)

// fig3Set is the representative subset the motivation sweep plots.
var fig3Set = []string{"spmv", "conv2d", "stencil", "sgemm", "vadd", "bfs"}

// memSet is the memory-intensive subset figure 6 and the fig5 subset
// geomean use.
var memSet = []string{"spmv", "conv2d", "stencil", "hotspot", "vadd", "nn", "streamcluster"}

// localitySet is the BCS-candidate subset (figures 8 and 9).
var localitySet = []string{"stencil", "hotspot", "conv2d", "pathfinder", "srad", "sgemm"}

// ckePairs are the (memory-or-cache-bound, compute-bound) kernel pairs of
// the mixed concurrent kernel execution study.
var ckePairs = [][2]string{
	{"spmv", "blackscholes"},
	{"spmv", "kmeans"},
	{"conv2d", "blackscholes"},
	{"stencil", "kmeans"},
	{"streamcluster", "dct8x8"},
	{"nn", "sgemm"},
}

// Table1Config reports the simulated GPU configuration [reconstructed:
// Fermi/GTX480-class, the standard HPCA'14 GPGPU-Sim setup].
func (h *Harness) Table1Config() (*Table, error) {
	g := gpu.DefaultConfig()
	m := mem.DefaultConfig()
	c := sm.DefaultConfig()
	rows := [][]string{
		{"SMs (cores)", fmt.Sprint(g.NumCores)},
		{"Warp size", "32"},
		{"Warp schedulers / SM", fmt.Sprint(c.NumSchedulers)},
		{"Max threads / SM", fmt.Sprint(c.Limits.MaxThreads)},
		{"Max CTAs / SM", fmt.Sprint(c.Limits.MaxCTAs)},
		{"Max warps / SM", fmt.Sprint(c.Limits.MaxWarps)},
		{"Registers / SM", fmt.Sprint(c.Limits.Registers)},
		{"Shared memory / SM", fmt.Sprintf("%d KB", c.Limits.SharedMemBytes/1024)},
		{"ALU result latency", fmt.Sprintf("%d cycles", c.ALULatency)},
		{"SFU latency / interval", fmt.Sprintf("%d / %d cycles", c.SFULatency, c.SFUInterval)},
		{"L1D / SM", fmt.Sprintf("%d KB, %d-way, %dB lines, %d MSHRs", m.L1Bytes/1024, m.L1Ways, m.LineBytes, m.L1MSHREntries)},
		{"L2 total", fmt.Sprintf("%d KB in %d partitions, %d-way", m.L2BytesPerPartition*m.Partitions/1024, m.Partitions, m.L2Ways)},
		{"Interconnect", fmt.Sprintf("crossbar, %d-cycle latency", m.XbarLatency)},
		{"DRAM", fmt.Sprintf("%d channels, FR-FCFS, %d banks, %dB rows", m.Partitions, m.DRAMBanks, m.DRAMRowBytes)},
		{"DRAM timing (CAS/act/burst)", fmt.Sprintf("%d/%d/%d cycles", m.DRAMtCAS, m.DRAMtRowExtra, m.DRAMtBurst)},
	}
	return &Table{
		ID: "table1", Title: "Simulated GPU configuration",
		Headers: []string{"parameter", "value"},
		Rows:    rows,
	}, nil
}

// Table2Characteristics reports the benchmark suite: shape, occupancy, and
// measured memory character under the baseline.
func (h *Harness) Table2Characteristics() (*Table, error) {
	return h.experiment(func(r *resolver) *Table {
		t := &Table{
			ID: "table2", Title: "Benchmark characteristics",
			Headers: []string{"workload", "modeled on", "class", "CTAs", "thr/CTA", "max CTA/SM", "bound-by", "IPC", "L1 hit", "inter-CTA"},
		}
		for _, w := range workloads.All() {
			spec := w.Build(h.opt.Scale)
			maxRes, binding := sm.DefaultConfig().Limits.MaxResident(spec)
			res := r.get(h.single(w.Name, sim.Baseline(), sm.PolicyGTO)).Result
			loc := ""
			if w.InterCTALocality {
				loc = "yes"
			}
			t.Rows = append(t.Rows, []string{
				w.Name, w.ModeledOn, string(w.Class),
				fmt.Sprint(spec.NumCTAs()), fmt.Sprint(spec.ThreadsPerCTA()),
				fmt.Sprint(maxRes), binding,
				fmt.Sprintf("%.2f", res.IPC), stats.Pct(res.L1.HitRate()), loc,
			})
		}
		return t
	})
}

// Fig3CTASweep is the motivation figure: normalized IPC as the per-SM CTA
// limit sweeps from 1 to the occupancy maximum. The paper's observation —
// the maximum CTA count does not maximize performance — appears as curves
// peaking below the right edge.
func (h *Harness) Fig3CTASweep() (*Table, error) {
	return h.experiment(func(r *resolver) *Table {
		t := &Table{
			ID: "fig3", Title: "Normalized IPC vs. CTAs-per-SM limit (GTO)",
			Headers: []string{"workload", "1", "2", "3", "4", "5", "6", "7", "8", "best@"},
		}
		for _, name := range fig3Set {
			maxRes := h.maxResident(name)
			baseCycles := r.get(h.limited(name, maxRes)).Result.Cycles
			row := []string{name}
			best, bestLim := 0.0, 0
			for lim := 1; lim <= 8; lim++ {
				if lim > maxRes {
					row = append(row, "-")
					continue
				}
				norm := stats.Speedup(baseCycles, r.get(h.limited(name, lim)).Result.Cycles)
				if norm > best {
					best, bestLim = norm, lim
				}
				row = append(row, fmt.Sprintf("%.2f", norm))
			}
			row = append(row, fmt.Sprintf("%d (%.2fx)", bestLim, best))
			t.Rows = append(t.Rows, row)
			if bestLim < maxRes {
				t.Notes = append(t.Notes, fmt.Sprintf("%s peaks at %d of %d CTAs/SM (%.0f%% over max occupancy)", name, bestLim, maxRes, (best-1)*100))
			}
		}
		return t
	})
}

// Fig4IssueShare shows the per-CTA issued-instruction share on core 0 when
// its first CTA completes — the histogram LCS reads. GTO concentrates issue
// on older CTAs; the total/greedy ratio is the LCS decision.
func (h *Harness) Fig4IssueShare() (*Table, error) {
	t := &Table{
		ID: "fig4", Title: "Per-CTA issue share at sampling-epoch end (GTO, core 0)",
		Headers: []string{"workload", "shares oldest..youngest (%)", "total/greedy", "LCS nOpt"},
	}
	for _, name := range []string{"sgemm", "blackscholes", "spmv", "stencil", "vadd", "bfs"} {
		hist, ratio, err := h.issueHistogram(name)
		if err != nil {
			return nil, err
		}
		if len(hist) == 0 {
			continue
		}
		total := 0.0
		for _, v := range hist {
			total += v
		}
		parts := ""
		for i, v := range hist {
			if i > 0 {
				parts += " "
			}
			parts += fmt.Sprintf("%.0f", 100*v/total)
		}
		nOpt := int(ratio + 0.5)
		if nOpt > len(hist) {
			nOpt = len(hist)
		}
		t.Rows = append(t.Rows, []string{name, parts, fmt.Sprintf("%.2f", ratio), fmt.Sprint(nOpt)})
	}
	t.Notes = append(t.Notes,
		"compute-bound kernels concentrate issue in the oldest CTAs (small ratio);",
		"latency-bound kernels spread issue almost evenly (ratio near occupancy)")
	return t, nil
}

// issueHistogram runs a workload under the baseline and captures core 0's
// per-CTA issue counts at its first CTA completion. It needs an observer on
// the live GPU, so it bypasses the service memo and runs the request's
// machine itself.
func (h *Harness) issueHistogram(name string) ([]float64, float64, error) {
	m, err := h.single(name, sim.Baseline(), sm.PolicyGTO).Build(nil)
	if err != nil {
		return nil, 0, fmt.Errorf("harness: %s: %w", name, err)
	}
	var hist []float64
	done := false
	m.SetObserver(func(coreID int, cta *sm.CTA, now uint64) {
		if done || coreID != 0 {
			return
		}
		done = true
		hist = append(hist, float64(cta.Issued))
		c := m.Core(coreID)
		var rest []float64
		for _, r := range c.CTAs() {
			rest = append(rest, float64(r.Issued))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(rest)))
		hist = append(hist, rest...)
	})
	m.Run()
	if len(hist) == 0 {
		return nil, 0, nil
	}
	total := 0.0
	for _, v := range hist {
		total += v
	}
	return hist, total / hist[0], nil
}

// Fig5LCS is the headline LCS figure: speedup over the max-occupancy GTO
// baseline for LCS, the adaptive extension, and the oracle static limit.
func (h *Harness) Fig5LCS() (*Table, error) {
	return h.experiment(func(r *resolver) *Table {
		t := &Table{
			ID: "fig5", Title: "LCS speedup over max-occupancy GTO baseline",
			Headers: []string{"workload", "LCS", "LCS-adaptive", "oracle static", "oracle limit"},
		}
		var lcsAll, adAll, orAll []float64
		var lcsMem, adMem, orMem []float64
		inMemSet := map[string]bool{}
		for _, n := range memSet {
			inMemSet[n] = true
		}
		for _, n := range workloads.Names() {
			base := r.get(h.single(n, sim.Baseline(), sm.PolicyGTO)).Result.Cycles
			lcs := stats.Speedup(base, r.get(h.single(n, sim.LCS(), sm.PolicyGTO)).Result.Cycles)
			ad := stats.Speedup(base, r.get(h.single(n, sim.AdaptiveLCS(), sm.PolicyGTO)).Result.Cycles)
			orBest, orLim := h.oracle(r, n)
			lcsAll, adAll, orAll = append(lcsAll, lcs), append(adAll, ad), append(orAll, orBest)
			if inMemSet[n] {
				lcsMem, adMem, orMem = append(lcsMem, lcs), append(adMem, ad), append(orMem, orBest)
			}
			t.Rows = append(t.Rows, []string{
				n, fmt.Sprintf("%.3f", lcs), fmt.Sprintf("%.3f", ad),
				fmt.Sprintf("%.3f", orBest), fmt.Sprint(orLim),
			})
		}
		t.Rows = append(t.Rows, []string{
			"geomean (mem-intensive)",
			fmt.Sprintf("%.3f", stats.GeoMean(lcsMem)),
			fmt.Sprintf("%.3f", stats.GeoMean(adMem)),
			fmt.Sprintf("%.3f", stats.GeoMean(orMem)),
			"",
		})
		t.Rows = append(t.Rows, []string{
			"geomean",
			fmt.Sprintf("%.3f", stats.GeoMean(lcsAll)),
			fmt.Sprintf("%.3f", stats.GeoMean(adAll)),
			fmt.Sprintf("%.3f", stats.GeoMean(orAll)),
			"",
		})
		return t
	})
}

// oracle returns the best static-limit speedup for a workload and its limit.
func (h *Harness) oracle(r *resolver, name string) (float64, int) {
	base := r.get(h.single(name, sim.Baseline(), sm.PolicyGTO)).Result.Cycles
	best, bestLim := 0.0, 0
	for lim := 1; lim <= h.maxResident(name); lim++ {
		if s := stats.Speedup(base, r.get(h.limited(name, lim)).Result.Cycles); s > best {
			best, bestLim = s, lim
		}
	}
	return best, bestLim
}

// Fig6LCSMemory explains the LCS wins: L1 miss rate, DRAM queueing, and
// load latency under baseline vs. the adaptive throttle on the
// memory-intensive subset.
func (h *Harness) Fig6LCSMemory() (*Table, error) {
	return h.experiment(func(r *resolver) *Table {
		t := &Table{
			ID: "fig6", Title: "Why throttling helps: memory system under baseline vs LCS-adaptive",
			Headers: []string{"workload", "L1 miss base", "L1 miss lcs", "DRAM queue base", "DRAM queue lcs", "load lat base", "load lat lcs"},
		}
		for _, n := range memSet {
			b := r.get(h.single(n, sim.Baseline(), sm.PolicyGTO)).Result
			l := r.get(h.single(n, sim.AdaptiveLCS(), sm.PolicyGTO)).Result
			t.Rows = append(t.Rows, []string{
				n,
				stats.Pct(b.L1.MissRate()), stats.Pct(l.L1.MissRate()),
				fmt.Sprintf("%.0f", b.DRAM.AvgQueueLatency()), fmt.Sprintf("%.0f", l.DRAM.AvgQueueLatency()),
				fmt.Sprintf("%.0f", b.AvgMemLatency), fmt.Sprintf("%.0f", l.AvgMemLatency),
			})
		}
		return t
	})
}

// Fig7LCSChoice compares the CTA count LCS (and the adaptive extension)
// settles on against the oracle static limit.
func (h *Harness) Fig7LCSChoice() (*Table, error) {
	return h.experiment(func(r *resolver) *Table {
		t := &Table{
			ID: "fig7", Title: "Chosen CTAs/SM: LCS vs adaptive vs oracle",
			Headers: []string{"workload", "max", "LCS (median)", "adaptive (median)", "oracle"},
		}
		for _, n := range workloads.Names() {
			lcs := r.get(h.single(n, sim.LCS(), sm.PolicyGTO))
			ad := r.get(h.single(n, sim.AdaptiveLCS(), sm.PolicyGTO))
			_, orLim := h.oracle(r, n)
			t.Rows = append(t.Rows, []string{
				n, fmt.Sprint(h.maxResident(n)),
				fmt.Sprint(median(lcs.Limits)), fmt.Sprint(median(ad.Limits)), fmt.Sprint(orLim),
			})
		}
		return t
	})
}

func median(limits []int) int {
	var vs []int
	for _, v := range limits {
		if v > 0 {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		return 0
	}
	sort.Ints(vs)
	return vs[len(vs)/2]
}

// Fig8BCS is the headline BCS figure: speedup of BCS gang dispatch with the
// BAWS warp scheduler over the baseline, on the inter-CTA-locality subset,
// with the L1 sharing it creates (hits plus MSHR merges).
func (h *Harness) Fig8BCS() (*Table, error) {
	return h.experiment(func(r *resolver) *Table {
		t := &Table{
			ID: "fig8", Title: "BCS(+BAWS) speedup over baseline on locality workloads",
			Headers: []string{"workload", "speedup", "L1 hit+merge base", "L1 hit+merge bcs", "DRAM reads saved"},
		}
		var all []float64
		for _, n := range localitySet {
			b := r.get(h.single(n, sim.Baseline(), sm.PolicyGTO)).Result
			x := r.get(h.single(n, sim.BCS(2), sm.PolicyBAWS)).Result
			s := stats.Speedup(b.Cycles, x.Cycles)
			all = append(all, s)
			share := func(res gpu.Result) float64 {
				if res.L1.Accesses == 0 {
					return 0
				}
				return float64(res.L1.Hits+res.L1.MSHRMerges) / float64(res.L1.Accesses)
			}
			saved := 0.0
			if b.DRAM.Reads > 0 {
				saved = 1 - float64(x.DRAM.Reads)/float64(b.DRAM.Reads)
			}
			t.Rows = append(t.Rows, []string{
				n, fmt.Sprintf("%.3f", s), stats.Pct(share(b)), stats.Pct(share(x)), stats.Pct(saved),
			})
		}
		t.Rows = append(t.Rows, []string{"geomean", fmt.Sprintf("%.3f", stats.GeoMean(all)), "", "", ""})
		return t
	})
}

// Fig9BAWS is the warp-scheduler ablation: BCS dispatch under plain GTO
// (gangs co-located but serialized) vs under BAWS (gangs in lockstep).
func (h *Harness) Fig9BAWS() (*Table, error) {
	return h.experiment(func(r *resolver) *Table {
		t := &Table{
			ID: "fig9", Title: "BAWS ablation: BCS+GTO vs BCS+BAWS (speedup over baseline)",
			Headers: []string{"workload", "BCS+GTO", "BCS+BAWS", "BAWS contribution"},
		}
		var g, bw []float64
		for _, n := range localitySet {
			b := r.get(h.single(n, sim.Baseline(), sm.PolicyGTO)).Result.Cycles
			sg := stats.Speedup(b, r.get(h.single(n, sim.BCS(2), sm.PolicyGTO)).Result.Cycles)
			sb := stats.Speedup(b, r.get(h.single(n, sim.BCS(2), sm.PolicyBAWS)).Result.Cycles)
			g, bw = append(g, sg), append(bw, sb)
			t.Rows = append(t.Rows, []string{
				n, fmt.Sprintf("%.3f", sg), fmt.Sprintf("%.3f", sb), fmt.Sprintf("%+.1f%%", (sb/sg-1)*100),
			})
		}
		t.Rows = append(t.Rows, []string{
			"geomean", fmt.Sprintf("%.3f", stats.GeoMean(g)), fmt.Sprintf("%.3f", stats.GeoMean(bw)), "",
		})
		return t
	})
}

// Fig10MCKE is the concurrent-kernel figure: total throughput of kernel
// pairs under sequential execution, spatial core partitioning, and the
// paper's mixed intra-SM co-scheduling with an LCS-derived limit.
func (h *Harness) Fig10MCKE() (*Table, error) {
	return h.experiment(func(r *resolver) *Table {
		// Profile phase: adaptive LCS decides each leading kernel's limit.
		limits := make([]int, len(ckePairs))
		for i, p := range ckePairs {
			limits[i] = max(1, lowQuartile(r.get(h.single(p[0], sim.AdaptiveLCS(), sm.PolicyGTO)).Limits))
		}
		if !r.ready() {
			return nil
		}
		t := &Table{
			ID: "fig10", Title: "Concurrent kernel execution: normalized throughput (higher is better)",
			Headers: []string{"pair", "nOpt(A)", "sequential", "spatial", "mixed"},
		}
		var sp, mx []float64
		for i, p := range ckePairs {
			pair := []string{p[0], p[1]}
			seq := r.get(h.multi(pair, sim.Sequential(), sm.PolicyGTO)).Result.Cycles
			spa := stats.Speedup(seq, r.get(h.multi(pair, sim.Spatial(), sm.PolicyGTO)).Result.Cycles)
			mix := stats.Speedup(seq, r.get(h.multi(pair, sim.Mixed(limits[i]), sm.PolicyGTO)).Result.Cycles)
			sp, mx = append(sp, spa), append(mx, mix)
			t.Rows = append(t.Rows, []string{
				p[0] + "+" + p[1], fmt.Sprint(limits[i]), "1.000",
				fmt.Sprintf("%.3f", spa), fmt.Sprintf("%.3f", mix),
			})
		}
		t.Rows = append(t.Rows, []string{
			"geomean", "", "1.000",
			fmt.Sprintf("%.3f", stats.GeoMean(sp)), fmt.Sprintf("%.3f", stats.GeoMean(mx)),
		})
		return t
	})
}

// Fig11Sensitivity sweeps the mechanisms' tuning: BCS gang width and the
// L1 capacity dependence of throttling.
func (h *Harness) Fig11Sensitivity() (*Table, error) {
	// At the default L1 capacity the request is the default machine's, the
	// one fig5 runs, as limited hands the top of a sweep to the baseline.
	l1Req := func(name string, sched sim.SchedSpec, l1 int) sim.Request {
		req := h.single(name, sched, sm.PolicyGTO)
		if l1 != mem.DefaultConfig().L1Bytes {
			req.L1Bytes = l1
		}
		return req
	}
	return h.experiment(func(r *resolver) *Table {
		t := &Table{
			ID: "fig11", Title: "Sensitivity: BCS gang width and L1 capacity",
			Headers: []string{"study", "workload", "config", "speedup"},
		}
		for _, n := range []string{"stencil", "conv2d", "hotspot"} {
			b := r.get(h.single(n, sim.Baseline(), sm.PolicyGTO)).Result.Cycles
			for _, bs := range []int{2, 4} {
				s := stats.Speedup(b, r.get(h.single(n, sim.BCS(bs), sm.PolicyBAWS)).Result.Cycles)
				t.Rows = append(t.Rows, []string{"bcs-width", n, fmt.Sprintf("gang=%d", bs), fmt.Sprintf("%.3f", s)})
			}
		}
		for _, n := range []string{"spmv", "conv2d"} {
			for _, l1 := range []int{16 * 1024, 32 * 1024} {
				b := r.get(l1Req(n, sim.Baseline(), l1)).Result.Cycles
				s := stats.Speedup(b, r.get(l1Req(n, sim.AdaptiveLCS(), l1)).Result.Cycles)
				t.Rows = append(t.Rows, []string{"l1-capacity", n, fmt.Sprintf("L1=%dKB", l1/1024), fmt.Sprintf("%.3f", s)})
			}
		}
		// DRAM scheduling: how much baseline performance rides on FR-FCFS row
		// reuse (FCFS speedup < 1 = slowdown from losing it).
		for _, n := range []string{"stencil", "vadd"} {
			req := h.single(n, sim.Baseline(), sm.PolicyGTO)
			base := r.get(req).Result
			req.DRAMSchedFCFS = true
			fcfs := r.get(req).Result
			t.Rows = append(t.Rows, []string{"dram-sched", n,
				fmt.Sprintf("FCFS (rowhit %s vs %s)", stats.Pct(fcfs.DRAM.RowHitRate()), stats.Pct(base.DRAM.RowHitRate())),
				fmt.Sprintf("%.3f", stats.Speedup(base.Cycles, fcfs.Cycles))})
		}
		return t
	})
}

// Fig12WarpSched crosses warp schedulers with CTA scheduling: LRR,
// two-level, and GTO baselines, and LCS on top of GTO (LCS depends on
// greedy concentration).
func (h *Harness) Fig12WarpSched() (*Table, error) {
	return h.experiment(func(r *resolver) *Table {
		t := &Table{
			ID: "fig12", Title: "Warp-scheduler interaction (speedup over LRR baseline)",
			Headers: []string{"workload", "two-level", "GTO", "GTO+LCS"},
		}
		var tl, g, gl []float64
		for _, n := range workloads.Names() {
			lrr := r.get(h.single(n, sim.Baseline(), sm.PolicyLRR)).Result.Cycles
			st := stats.Speedup(lrr, r.get(h.single(n, sim.Baseline(), sm.PolicyTwoLevel)).Result.Cycles)
			sg := stats.Speedup(lrr, r.get(h.single(n, sim.Baseline(), sm.PolicyGTO)).Result.Cycles)
			sl := stats.Speedup(lrr, r.get(h.single(n, sim.LCS(), sm.PolicyGTO)).Result.Cycles)
			tl, g, gl = append(tl, st), append(g, sg), append(gl, sl)
			t.Rows = append(t.Rows, []string{n,
				fmt.Sprintf("%.3f", st), fmt.Sprintf("%.3f", sg), fmt.Sprintf("%.3f", sl)})
		}
		t.Rows = append(t.Rows, []string{"geomean",
			fmt.Sprintf("%.3f", stats.GeoMean(tl)),
			fmt.Sprintf("%.3f", stats.GeoMean(g)),
			fmt.Sprintf("%.3f", stats.GeoMean(gl))})
		return t
	})
}

// Fig13PriorWork contrasts LCS with the DYNCTA-style feedback throttler —
// the closest prior-work CTA scheduler the paper is positioned against.
func (h *Harness) Fig13PriorWork() (*Table, error) {
	return h.experiment(func(r *resolver) *Table {
		t := &Table{
			ID: "fig13", Title: "CTA throttling vs prior work (speedup over baseline)",
			Headers: []string{"workload", "DYNCTA", "LCS", "LCS-adaptive"},
		}
		var dy, lc, ad []float64
		for _, n := range workloads.Names() {
			base := r.get(h.single(n, sim.Baseline(), sm.PolicyGTO)).Result.Cycles
			sd := stats.Speedup(base, r.get(h.single(n, sim.DynCTA(), sm.PolicyGTO)).Result.Cycles)
			sl := stats.Speedup(base, r.get(h.single(n, sim.LCS(), sm.PolicyGTO)).Result.Cycles)
			sa := stats.Speedup(base, r.get(h.single(n, sim.AdaptiveLCS(), sm.PolicyGTO)).Result.Cycles)
			dy, lc, ad = append(dy, sd), append(lc, sl), append(ad, sa)
			t.Rows = append(t.Rows, []string{n,
				fmt.Sprintf("%.3f", sd), fmt.Sprintf("%.3f", sl), fmt.Sprintf("%.3f", sa)})
		}
		t.Rows = append(t.Rows, []string{"geomean",
			fmt.Sprintf("%.3f", stats.GeoMean(dy)),
			fmt.Sprintf("%.3f", stats.GeoMean(lc)),
			fmt.Sprintf("%.3f", stats.GeoMean(ad))})
		return t
	})
}

// fig14Mixes pair a batch kernel (launched first, kernel 0) with a
// latency-sensitive kernel that arrives while the batch owns every SM. The
// batch partners span the occupancy spectrum — compute-bound (dct8x8),
// cache-sensitive (stencil), and streaming (vadd) — because the batch
// kernel's profile decides how much capacity an occupancy cap (MCKE) can
// donate: a compute-bound batch keeps a high optimal CTA count, so only
// eviction frees slots for the late kernel.
var fig14Mixes = [][2]string{
	{"sgemm", "dct8x8"},
	{"stencil", "blackscholes"},
	{"vadd", "kmeans"},
}

// fig14ArrivalFrac places the priority kernel's arrival this far into the
// batch kernel's solo makespan: late enough that the machine is saturated,
// early enough that plenty of batch work remains.
const fig14ArrivalFrac = 4 // arrival = batch solo cycles / 4

// Fig14Preemption evaluates drain/switch CTA preemption on two-kernel
// priority mixes: a batch kernel saturates the GPU, a latency-sensitive
// kernel arrives a quarter into its makespan, and the schedulers differ in
// how the newcomer gets on. Turnarounds are normalized per kernel against
// its solo run (NT = T_shared/T_alone, lower is better); ANTT averages them
// and STP sums their reciprocals (higher is better). The preemptive rows
// also report how many batch CTAs were evicted — each is redone work.
func (h *Harness) Fig14Preemption() (*Table, error) {
	return h.experiment(func(r *resolver) *Table {
		// Solo runs anchor everything: T_alone for both kernels, the batch
		// makespan that fixes the arrival cycle, and the adaptive-LCS profile
		// that sizes the MCKE limit (the Fig10 recipe).
		type plan struct {
			pair           []string
			aloneB, aloneP uint64 // batch and priority solo makespans
			lim            int    // MCKE cap for the batch kernel
		}
		plans := make([]plan, len(fig14Mixes))
		for i, mix := range fig14Mixes {
			plans[i] = plan{
				pair:   []string{mix[0], mix[1]},
				aloneB: r.get(h.single(mix[0], sim.Baseline(), sm.PolicyGTO)).Result.Cycles,
				aloneP: r.get(h.single(mix[1], sim.Baseline(), sm.PolicyGTO)).Result.Cycles,
				lim:    max(1, lowQuartile(r.get(h.single(mix[0], sim.AdaptiveLCS(), sm.PolicyGTO)).Limits)),
			}
		}
		if !r.ready() {
			return nil
		}
		t := &Table{
			ID: "fig14", Title: "Drain preemption on priority mixes: normalized turnaround (lower is better), STP (higher is better)",
			Headers: []string{"mix", "sched", "NT(batch)", "NT(prio)", "ANTT", "STP", "evicted"},
		}
		labels := []string{"rr", "mcke", "preempt", "preempt:dl"}
		sums := make([][3]float64, len(labels)) // per label: ANTT, STP, NT(prio)
		for _, p := range plans {
			arrival := p.aloneB / fig14ArrivalFrac
			// The deadline grants the priority kernel twice its solo
			// makespan after arrival; the predictor only preempts while it
			// forecasts a miss.
			deadline := int(arrival + 2*p.aloneP)
			scheds := []sim.SchedSpec{sim.Baseline(), sim.Mixed(p.lim), sim.Preemptive(0), sim.Preemptive(deadline)}
			for i, s := range scheds {
				req := h.multi(p.pair, s, sm.PolicyGTO)
				req.Arrivals = []uint64{0, arrival}
				res := r.get(req).Result
				if !r.ready() {
					continue // recorded: no outcome until the next pass
				}
				// Turnaround runs from the kernel's arrival to its last CTA.
				ntB := stats.NormalizedTurnaround(p.aloneB, res.Kernels[0].DoneCycle)
				ntP := stats.NormalizedTurnaround(p.aloneP, res.Kernels[1].DoneCycle-arrival)
				nts := []float64{ntB, ntP}
				t.Rows = append(t.Rows, []string{
					p.pair[0] + "+" + p.pair[1], labels[i],
					fmt.Sprintf("%.3f", ntB), fmt.Sprintf("%.3f", ntP),
					fmt.Sprintf("%.3f", stats.ANTT(nts)),
					fmt.Sprintf("%.3f", stats.STP(nts)),
					fmt.Sprint(res.Kernels[0].Evicted),
				})
				sums[i][0] += stats.ANTT(nts)
				sums[i][1] += stats.STP(nts)
				sums[i][2] += ntP
			}
		}
		n := float64(len(plans))
		for i, l := range labels {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: mean ANTT %.3f, mean STP %.3f, mean NT(prio) %.3f",
				l, sums[i][0]/n, sums[i][1]/n, sums[i][2]/n))
		}
		return t
	})
}

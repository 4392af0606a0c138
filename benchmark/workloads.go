package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"gpusched/internal/gpu"
	"gpusched/internal/harness"
	"gpusched/internal/kernel"
	"gpusched/internal/sim"
	"gpusched/internal/sm"
	"gpusched/internal/stats"
	"gpusched/internal/workloads"
)

// sizes fixes how much work one pass of each workload does. The full sizes
// are constants of the benchmark, the same on every commit; the test sizes
// let `go test` run every workload in a few seconds.
type sizes struct {
	// IssueScale is the problem scale of sim-issue's four suite kernels.
	IssueScale workloads.Scale `json:"issue_scale"`
	// MemsysChase and IdleChase are ChaseSpec(ctas, warps per CTA, loads
	// per warp) shapes.
	MemsysChase [3]int `json:"memsys_chase"`
	IdleChase   [3]int `json:"idle_chase"`
	// FigsScale is the scale of the timed paper-figs passes. FidelityScale
	// is the scale of the one extra, untimed pass a traced run makes to
	// read the paper's shape metrics where they are meaningful.
	FigsScale     workloads.Scale `json:"figs_scale"`
	FidelityScale workloads.Scale `json:"fidelity_scale"`
	Fleet         fleetSizes      `json:"fleet"`
	// SetupReps is how many times at least set-up is repeated for setup_s,
	// and SetupSeconds how long at least, while that takes no more than
	// five times as many repeats. MinRounds is the least number of whole
	// passes a timed section makes.
	SetupReps    int     `json:"setup_reps"`
	SetupSeconds float64 `json:"setup_seconds"`
	MinRounds    int     `json:"min_rounds"`
}

var fullSizes = sizes{
	IssueScale:    workloads.ScaleSmall,
	MemsysChase:   [3]int{480, 1, 256},
	IdleChase:     [3]int{1, 1, 65536},
	FigsScale:     workloads.ScaleTest,
	FidelityScale: workloads.ScaleSmall,
	Fleet:         fleetSizes{Clients: 2, Window: 90, Block: 600, NewPerBlock: 30, MaxFlights: 40},
	SetupReps:     3,
	SetupSeconds:  1,
	MinRounds:     3,
}

var testSizes = sizes{
	IssueScale:    workloads.ScaleTest,
	MemsysChase:   [3]int{30, 1, 16},
	IdleChase:     [3]int{1, 1, 512},
	FigsScale:     workloads.ScaleTest,
	FidelityScale: workloads.ScaleTest,
	Fleet:         fleetSizes{Clients: 2, Window: 15, Block: 60, NewPerBlock: 15, MaxFlights: 6},
	SetupReps:     1,
	MinRounds:     2,
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// setup does everything that precedes the first timed operation. It is
	// run SetupReps times; the last instance is the one measured.
	setup func(sz sizes, tr *tracer) (*instance, error)
}

var allWorkloads = []workload{
	{"sim-issue", "sgemm, kmeans, stencil and spmv, one simulation each: the single-run latency; sm warp pick and issue is the largest layer share of host time", setupIssue},
	{"sim-memsys", "480 one-warp CTAs of dependent loads that all miss: the memory system and LDST unit work every cycle, the warp pick has one warp to look at", setupMemsys},
	{"sim-idle", "a single warp of dependent loads on 15 SMs: nearly every cycle is skipped by the gpu loop's fast-forward and parking and mem.System's batch tick", setupIdle},
	{"paper-figs", "fig8, fig9 and fig6 on a fresh harness: many short simulations through sim.Service memo, singleflight and worker pool", setupFigs},
	{"fleet-serve", "2 closed-loop clients, router and 2 shards in one process, 95% repeated keys: the median request is a cache hit, the tail a simulation", setupFleet},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// simulate builds a fresh machine for one kernel and runs it at the
// shipped defaults: gpu.DefaultConfig with every execution knob left at
// zero, and the baseline dispatcher. These are the calls gpusched.Run
// makes; they are made here one by one so that each layer can be spanned
// and the full counters read.
func simulate(tr *tracer, id string, build func() *kernel.Spec) (gpu.Result, *kernel.Spec, error) {
	sp := tr.begin(id, "workloads", "build")
	spec := build()
	tr.end(sp)
	sp = tr.begin(id, "gpu", "new")
	g, err := gpu.New(gpu.DefaultConfig(), sim.Baseline().NewDispatcher(), spec)
	tr.end(sp)
	if err != nil {
		return gpu.Result{}, spec, err
	}
	sp = tr.begin(id, "gpu", "run")
	res, err := g.RunContext(context.Background())
	tr.end(sp)
	return res, spec, err
}

// checkResult returns what is wrong with one simulation's result: it must
// have finished, retired every CTA of every kernel's grid and issued
// instructions.
func checkResult(what string, res gpu.Result, grids ...int) []string {
	var bad []string
	if res.TimedOut {
		bad = append(bad, fmt.Sprintf("%s: timed out after %d cycles", what, res.Cycles))
	}
	total := 0
	for i, want := range grids {
		total += want
		if i >= len(res.Kernels) || res.Kernels[i].CTAs != want {
			bad = append(bad, fmt.Sprintf("%s: kernel %d reports a grid other than %d CTAs", what, i, want))
		}
	}
	if got := int(res.Core.CTAsCompleted); got != total {
		bad = append(bad, fmt.Sprintf("%s: %d CTAs completed, grid has %d", what, got, total))
	}
	if res.InstrIssued == 0 || res.Cycles == 0 {
		bad = append(bad, what+": no instruction issued")
	}
	return bad
}

// simItem is one simulation of the kernel build returns.
func simItem(kind string, build func() *kernel.Spec) item {
	return item{kind: kind, run: func(tr *tracer, id string) itemOut {
		res, spec, err := simulate(tr, id, build)
		out := itemOut{ops: 1}
		if err != nil {
			out.failures = []string{fmt.Sprintf("%s: %v", kind, err)}
			return out
		}
		out.failures = checkResult(kind, res, spec.NumCTAs())
		out.cycles, out.instr = res.Cycles, res.InstrIssued
		out.simulated = []gpu.Result{res}
		out.canon = canonical(res)
		return out
	}}
}

// warmUp runs each kernel once, untimed, so that the first timed sample
// does not pay for growing the heap.
func warmUp(builds ...func() *kernel.Spec) error {
	for _, b := range builds {
		if _, _, err := simulate(nil, "", b); err != nil {
			return err
		}
	}
	return nil
}

// shuffled returns the items in an order drawn from rng. Results must not
// depend on it.
func shuffled(rng *rand.Rand, items []item) []item {
	out := append([]item(nil), items...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

var issueKernels = []string{"sgemm", "kmeans", "stencil", "spmv"}

func setupIssue(sz sizes, _ *tracer) (*instance, error) {
	var items []item
	var warm []func() *kernel.Spec
	for _, name := range issueKernels {
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("suite has no workload %q", name)
		}
		items = append(items, simItem(name, func() *kernel.Spec { return w.Build(sz.IssueScale) }))
		warm = append(warm, func() *kernel.Spec { return w.Build(workloads.ScaleTest) })
	}
	if err := warmUp(warm...); err != nil {
		return nil, err
	}
	return &instance{pass: func(rng *rand.Rand) []item { return shuffled(rng, items) }}, nil
}

// chaseInstance measures one fresh machine per pass on a ChaseSpec shape,
// after a warm-up on a quarter of the loads.
func chaseInstance(shape [3]int) (*instance, error) {
	if err := warmUp(func() *kernel.Spec { return workloads.ChaseSpec(shape[0], shape[1], shape[2]/4+1) }); err != nil {
		return nil, err
	}
	items := []item{simItem("chase", func() *kernel.Spec { return workloads.ChaseSpec(shape[0], shape[1], shape[2]) })}
	return &instance{pass: func(*rand.Rand) []item { return items }}, nil
}

func setupMemsys(sz sizes, _ *tracer) (*instance, error) { return chaseInstance(sz.MemsysChase) }

func setupIdle(sz sizes, _ *tracer) (*instance, error) { return chaseInstance(sz.IdleChase) }

// The workload sets of the three experiments, as internal/harness has
// them. They are repeated here because the pass asks the harness's own
// service for every outcome again (memo hits) to check and digest them; if
// the harness's sets change, those lookups simulate and the pass fails.
var (
	figsLocality = []string{"stencil", "hotspot", "conv2d", "pathfinder", "srad", "sgemm"}
	figsMemory   = []string{"spmv", "conv2d", "stencil", "hotspot", "vadd", "nn", "streamcluster"}
	figsIDs      = []string{"fig8", "fig9", "fig6"}
)

// fidelity holds the paper's shape metrics, in simulated time. The model
// has not been validated against hardware, so no error figure goes with them.
type fidelity struct {
	BCSGeomean    float64 `json:"bcs_geomean_speedup"`
	BCSDRAMSaved  float64 `json:"bcs_dram_reads_saved"`
	BAWSOverGTO   float64 `json:"baws_over_gto"`
	LCSGeomean    float64 `json:"lcs_geomean_speedup"`
	Fig8TableCell string  `json:"fig8_table_geomean"`
}

// figsPass runs the three experiments on a fresh harness without a disk
// cache, renders their tables, then reads every outcome back from the
// harness's service to check it.
func figsPass(tr *tracer, id string, scale workloads.Scale) (itemOut, fidelity) {
	var out itemOut
	var fid fidelity
	h := harness.New(harness.Options{Scale: scale})
	var rendered bytes.Buffer
	for _, fig := range figsIDs {
		out.ops++
		exp, ok := harness.ByID(fig)
		if !ok {
			out.failures = append(out.failures, "harness has no experiment "+fig)
			continue
		}
		sp := tr.begin(id, "harness", fig)
		table, err := exp.Run(h)
		tr.end(sp)
		if err != nil {
			out.failures = append(out.failures, fmt.Sprintf("%s: %v", fig, err))
			continue
		}
		sp = tr.begin(id, "harness", "render")
		table.Render(&rendered)
		table.CSV(&rendered)
		tr.end(sp)
		if fig == "fig8" && len(table.Rows) > 0 && len(table.Rows[len(table.Rows)-1]) > 1 {
			fid.Fig8TableCell = table.Rows[len(table.Rows)-1][1]
		}
	}
	if len(out.failures) > 0 {
		return out, fid
	}

	svc := h.Service()
	ran := svc.Stats()
	get := func(name string, sched sim.SchedSpec, warp sm.Policy) sim.Outcome {
		out.ops++
		what := fmt.Sprintf("%s/%s/%s", name, sched, warp)
		o, err := svc.Run(context.Background(), sim.Request{Workloads: []string{name}, Sched: sched, Warp: warp, Scale: scale})
		if err != nil {
			out.failures = append(out.failures, fmt.Sprintf("%s: %v", what, err))
			return o
		}
		w, _ := workloads.ByName(name)
		out.failures = append(out.failures, checkResult(what, o.Result, w.Build(scale).NumCTAs())...)
		out.cycles += o.Result.Cycles
		out.instr += o.Result.InstrIssued
		out.simulated = append(out.simulated, o.Result)
		out.limits = append(out.limits, o.Limits...)
		return o
	}
	var outcomes []sim.Outcome
	var bcs, bcsGTO, saved, lcs []float64
	for _, n := range figsLocality {
		base := get(n, sim.Baseline(), sm.PolicyGTO)
		gto := get(n, sim.BCS(2), sm.PolicyGTO)
		baws := get(n, sim.BCS(2), sm.PolicyBAWS)
		outcomes = append(outcomes, base, gto, baws)
		if gto.Result.Cycles == 0 || baws.Result.Cycles == 0 || base.Result.DRAM.Reads == 0 {
			continue // already reported by checkResult
		}
		bcs = append(bcs, float64(base.Result.Cycles)/float64(baws.Result.Cycles))
		bcsGTO = append(bcsGTO, float64(base.Result.Cycles)/float64(gto.Result.Cycles))
		saved = append(saved, 1-float64(baws.Result.DRAM.Reads)/float64(base.Result.DRAM.Reads))
	}
	for _, n := range figsMemory {
		base := get(n, sim.Baseline(), sm.PolicyGTO)
		adaptive := get(n, sim.AdaptiveLCS(), sm.PolicyGTO)
		outcomes = append(outcomes, base, adaptive)
		if adaptive.Result.Cycles > 0 {
			lcs = append(lcs, float64(base.Result.Cycles)/float64(adaptive.Result.Cycles))
		}
	}
	if again := svc.Stats().Simulated - ran.Simulated; again != 0 {
		out.failures = append(out.failures, fmt.Sprintf(
			"reading outcomes back simulated %d more times: the benchmark's workload sets no longer match the harness's", again))
	}
	out.svc = ran
	fid.BCSGeomean = stats.GeoMean(bcs)
	fid.BAWSOverGTO = stats.GeoMean(bcs) / stats.GeoMean(bcsGTO)
	fid.LCSGeomean = stats.GeoMean(lcs)
	for _, s := range saved {
		fid.BCSDRAMSaved += s / float64(len(saved))
	}
	if cell := fmt.Sprintf("%.3f", fid.BCSGeomean); cell != fid.Fig8TableCell {
		out.failures = append(out.failures, fmt.Sprintf("fig8 table says geomean %s, its outcomes give %s", fid.Fig8TableCell, cell))
	}
	out.canon = canonical(struct {
		Tables   string
		Outcomes []sim.Outcome
	}{rendered.String(), outcomes})
	return out, fid
}

func setupFigs(sz sizes, _ *tracer) (*instance, error) {
	// The warm-up is a whole pass: it also shows, before anything is
	// timed, that the experiments run at this scale.
	if out, _ := figsPass(nil, "", sz.FigsScale); len(out.failures) > 0 {
		return nil, fmt.Errorf("paper-figs warm-up: %s", out.failures[0])
	}
	items := []item{{kind: "figs", run: func(tr *tracer, id string) itemOut {
		out, _ := figsPass(tr, id, sz.FigsScale)
		return out
	}}}
	// A traced run reads the shape metrics from one more, untimed pass at
	// the scale where they mean something.
	extra := func(m map[string]float64) (int, []string) {
		out, fid := figsPass(nil, "", sz.FidelityScale)
		m["fidelity.bcs_geomean_speedup"] = fid.BCSGeomean
		m["fidelity.bcs_dram_reads_saved"] = fid.BCSDRAMSaved
		m["fidelity.baws_over_gto"] = fid.BAWSOverGTO
		m["fidelity.lcs_geomean_speedup"] = fid.LCSGeomean
		return out.ops, out.failures
	}
	return &instance{pass: func(*rand.Rand) []item { return items }, extra: extra}, nil
}

// Package harness regenerates the paper's tables and figures. Each
// experiment is a function from Options to a Table; cmd/paperbench renders
// them as aligned text and CSV, and bench_test.go wraps each as a Go
// benchmark. All simulations flow through the internal/sim service layer,
// which memoizes and deduplicates runs across experiments (the oracle
// sweep feeds three figures but pays for its simulations once), executes
// independent runs on all cores, and can persist results on disk so
// repeated invocations skip completed work.
package harness

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"gpusched/internal/sim"
	"gpusched/internal/sm"
	"gpusched/internal/workloads"
)

// Options configures a harness run.
type Options struct {
	// Scale selects the problem size (ScaleSmall for quick runs,
	// ScaleFull for the paper experiments).
	Scale workloads.Scale
	// Cores overrides the SM count (0 = the 15-SM default).
	Cores int
	// Progress, when non-nil, receives one line per completed simulation.
	Progress io.Writer
	// CacheDir, when non-empty, persists simulation results on disk
	// (conventionally results/.simcache) so repeated runs skip them.
	CacheDir string
	// NoFastForward forces every simulation onto the reference
	// cycle-by-cycle loop (see gpu.Config.DisableFastForward). The
	// determinism tests run every experiment both ways and require
	// identical tables.
	NoFastForward bool
	// TickGranule is the per-SM parking threshold for the activity-set tick
	// (0 = gpu.DefaultGranule). Execution only: the golden determinism
	// tests sweep granules and require identical tables.
	TickGranule uint64
	// BatchWindow caps the quiet-window cycle batch (0 = the default, 1 =
	// batching off). Execution only, like TickGranule: the golden
	// determinism tests sweep windows and require identical tables.
	BatchWindow uint64
}

// Table is one rendered experiment.
type Table struct {
	// ID is the experiment identifier ("fig5", "table2", ...).
	ID string
	// Title describes what the paper's counterpart shows.
	Title string
	// Headers and Rows are the tabular payload.
	Headers []string
	Rows    [][]string
	// Notes carry interpretation (who wins, by how much) for
	// EXPERIMENTS.md.
	Notes []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	rows := append([][]string{t.Headers}, t.Rows...)
	for _, row := range rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		fmt.Fprintln(w, strings.Join(cells, ","))
	}
}

// Harness binds the experiment generators to a simulation service.
type Harness struct {
	opt Options
	svc *sim.Service
}

// New builds a harness.
func New(opt Options) *Harness {
	return &Harness{
		opt: opt,
		svc: sim.NewService(sim.Options{
			Progress:    opt.Progress,
			CacheDir:    opt.CacheDir,
			TickGranule: opt.TickGranule,
			BatchWindow: opt.BatchWindow,
		}),
	}
}

// Service exposes the underlying simulation service (request statistics).
func (h *Harness) Service() *sim.Service { return h.svc }

// single builds a one-workload request at the harness's scale/core count.
func (h *Harness) single(name string, sched sim.SchedSpec, policy sm.Policy) sim.Request {
	return h.multi([]string{name}, sched, policy)
}

// multi builds a multi-kernel request at the harness's scale/core count.
func (h *Harness) multi(names []string, sched sim.SchedSpec, policy sm.Policy) sim.Request {
	return sim.Request{
		Workloads:     names,
		Sched:         sched,
		Warp:          policy,
		Scale:         h.opt.Scale,
		Cores:         h.opt.Cores,
		NoFastForward: h.opt.NoFastForward,
	}
}

// resolver threads one experiment's simulation lookups through the
// service, capturing the first error so the table-building code stays
// linear. After any failure, get returns zero outcomes and the experiment
// surfaces r.err to its caller.
type resolver struct {
	h   *Harness
	err error
}

func (h *Harness) resolve() *resolver { return &resolver{h: h} }

// get executes (or recalls) one simulation.
func (r *resolver) get(req sim.Request) sim.Outcome {
	if r.err != nil {
		return sim.Outcome{}
	}
	out, err := r.h.svc.Run(context.Background(), req)
	if err != nil {
		r.err = err
		return sim.Outcome{}
	}
	return out
}

// warm executes all missing requests concurrently before the sequential
// table-assembly reads, so independent simulations use every core.
func (r *resolver) warm(reqs []sim.Request) {
	if r.err != nil {
		return
	}
	if err := r.h.svc.RunAll(context.Background(), reqs); err != nil {
		r.err = err
	}
}

// maxResident returns the occupancy-maximal CTAs/SM for a workload.
func (h *Harness) maxResident(name string) int {
	w, ok := workloads.ByName(name)
	if !ok {
		return 0
	}
	n, _ := sm.DefaultConfig().Limits.MaxResident(w.Build(h.opt.Scale))
	return n
}

// lowQuartile returns the 25th-percentile positive limit (the conservative
// consensus the mixed-CKE allocator uses).
func lowQuartile(limits []int) int {
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
	return vs[len(vs)/4]
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// speedup returns base/cur as a ratio (0 when cur is degenerate).
func speedup(base, cur uint64) float64 {
	if cur == 0 {
		return 0
	}
	return float64(base) / float64(cur)
}

// Package harness regenerates the paper's tables and figures. Each
// experiment is a function from Options to a Table; cmd/paperbench
// renders them as aligned text and CSV. A figure names each run it reads
// once, where it reads it: the harness runs the figure in passes, the
// first recording its lookups, which then execute together on every core,
// and a later pass reading their outcomes (see Harness.experiment). All
// simulations flow through the internal/sim service layer, which memoizes
// and deduplicates runs across experiments (the oracle sweep feeds three
// figures but pays for its simulations once) and can persist results on
// disk so repeated invocations skip completed work.
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
	// run is where every lookup goes: svc itself, or a wrapper around it
	// (the determinism tests diff each outcome against sim.Reference).
	run runner
}

// runner is the lookup seam between the experiments and the service;
// *sim.Service satisfies it. An experiment's passes hand each batch of
// recorded lookups to RunAll and read every outcome back through Run.
type runner interface {
	Run(ctx context.Context, req sim.Request) (sim.Outcome, error)
	RunAll(ctx context.Context, reqs []sim.Request) error
}

// New builds a harness.
func New(opt Options) *Harness {
	svc := sim.NewService(sim.Options{Progress: opt.Progress, CacheDir: opt.CacheDir})
	return &Harness{opt: opt, svc: svc, run: svc}
}

// Service exposes the underlying simulation service (request statistics).
func (h *Harness) Service() *sim.Service { return h.svc }

// single builds a one-workload request at the harness's scale/core count.
func (h *Harness) single(name string, sched sim.SchedSpec, policy sm.Policy) sim.Request {
	return h.multi([]string{name}, sched, policy)
}

// limited is the request for workload name under GTO with at most lim of
// its CTAs per SM. At lim >= maxResident the cap cannot bind — CanAccept
// refuses every placement past the occupancy maximum first — so Limited
// places exactly as RoundRobin does, and neither reports limits: that point
// is the baseline request, whose outcome the sweep then shares with every
// experiment that runs the baseline.
func (h *Harness) limited(name string, lim int) sim.Request {
	if lim >= h.maxResident(name) {
		return h.single(name, sim.Baseline(), sm.PolicyGTO)
	}
	return h.single(name, sim.Static(lim), sm.PolicyGTO)
}

// multi builds a multi-kernel request at the harness's scale/core count.
func (h *Harness) multi(names []string, sched sim.SchedSpec, policy sm.Policy) sim.Request {
	return sim.Request{
		Workloads: names,
		Sched:     sched,
		Warp:      policy,
		Scale:     h.opt.Scale,
		Cores:     h.opt.Cores,
	}
}

// resolver is one experiment's view of the service, counting its lookups
// by position: a pass repeats the earlier passes' lookups in order, so the
// first ran lookups of a pass read outcomes that an earlier batch made and
// every later one is recorded for the next batch and reads as a zero
// Outcome. Each read still goes to the service with its own request, so a
// figure whose lookups move between passes costs a serial simulation, never
// a wrong outcome.
type resolver struct {
	h       *Harness
	n, ran  int           // lookups so far this pass; lookups with outcomes
	pending []sim.Request // lookups this pass recorded
	err     error
}

// experiment runs fig in passes until one records nothing, running each
// pass's recorded lookups together, and returns that pass's table. A figure
// that builds requests from outcomes reads those first and returns nil
// unless r.ready().
func (h *Harness) experiment(fig func(r *resolver) *Table) (*Table, error) {
	r := &resolver{h: h}
	for {
		r.n = 0
		t := fig(r)
		if r.err != nil {
			return nil, r.err
		}
		if len(r.pending) == 0 {
			return t, nil
		}
		if err := h.run.RunAll(context.Background(), r.pending); err != nil {
			return nil, err
		}
		r.ran, r.pending = r.n, r.pending[:0]
	}
}

// get returns req's outcome, or records req and returns a zero Outcome when
// no earlier pass made it.
func (r *resolver) get(req sim.Request) sim.Outcome {
	r.n++
	if r.err != nil {
		return sim.Outcome{}
	}
	if r.n > r.ran {
		r.pending = append(r.pending, req)
		return sim.Outcome{}
	}
	out, err := r.h.run.Run(context.Background(), req)
	if err != nil {
		r.err = err
		return sim.Outcome{}
	}
	return out
}

// ready reports whether every lookup so far read a real outcome.
func (r *resolver) ready() bool { return r.err == nil && len(r.pending) == 0 }

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

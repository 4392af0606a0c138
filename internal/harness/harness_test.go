package harness

import (
	"reflect"
	"strings"
	"testing"

	"gpusched/internal/sim"
	"gpusched/internal/sm"
	"gpusched/internal/workloads"
)

func tinyHarness() *Harness {
	return New(Options{Scale: workloads.ScaleTest, Cores: 4})
}

func TestTableRender(t *testing.T) {
	table := &Table{
		ID: "t", Title: "demo",
		Headers: []string{"a", "longheader"},
		Rows:    [][]string{{"xx", "1"}, {"y", "22"}},
		Notes:   []string{"a note"},
	}
	var sb strings.Builder
	table.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== t: demo ==", "longheader", "a note", "xx"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	table := &Table{
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"x,y", `q"u`}},
	}
	var sb strings.Builder
	table.CSV(&sb)
	want := "a,b\n\"x,y\",\"q\"\"u\"\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestRegistryComplete(t *testing.T) {
	exps := Experiments()
	if len(exps) != 14 {
		t.Fatalf("registry has %d experiments, want 14", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Desc == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("fig5"); !ok {
		t.Error("ByID(fig5) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
}

func TestTable1IsStatic(t *testing.T) {
	h := tinyHarness()
	table, err := h.Table1Config()
	if err != nil {
		t.Fatal(err)
	}
	if table.ID != "table1" || len(table.Rows) < 10 {
		t.Fatalf("table1 = %+v", table)
	}
}

func TestMemoizationReturnsSameResult(t *testing.T) {
	h := tinyHarness()
	req := h.single("vadd", sim.Baseline(), sm.PolicyGTO)
	var a, b sim.Outcome
	if _, err := h.experiment(func(r *resolver) *Table {
		a, b = r.get(req), r.get(req)
		return &Table{}
	}); err != nil {
		t.Fatal(err)
	}
	if a.Result.Cycles == 0 || a.Result.Cycles != b.Result.Cycles {
		t.Fatalf("memoized run differed: %d vs %d cycles", a.Result.Cycles, b.Result.Cycles)
	}
	if st := h.Service().Stats(); st.Simulated != 1 {
		t.Fatalf("service simulated %d runs, want 1", st.Simulated)
	}
}

// TestExperimentStopsAtFirstError: a batch that fails ends the experiment
// with its error after the pass that recorded it, simulating nothing.
func TestExperimentStopsAtFirstError(t *testing.T) {
	h := tinyHarness()
	bad := h.single("no-such-workload", sim.Baseline(), sm.PolicyGTO)
	passes := 0
	tab, err := h.experiment(func(r *resolver) *Table {
		passes++
		if out := r.get(bad); out.Result.Cycles != 0 {
			t.Error("failed request returned a non-zero outcome")
		}
		return &Table{}
	})
	if err == nil || tab != nil {
		t.Fatalf("experiment = %v, %v; want the batch's error", tab, err)
	}
	if passes != 1 {
		t.Errorf("experiment ran %d passes after a failed batch, want 1", passes)
	}
	if st := h.Service().Stats(); st.Simulated != 0 {
		t.Fatalf("service simulated %d runs after failure, want 0", st.Simulated)
	}
}

func TestFig9SmallEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several simulations")
	}
	h := tinyHarness()
	table, err := h.Fig9BAWS()
	if err != nil {
		t.Fatal(err)
	}
	// localitySet rows + geomean.
	if len(table.Rows) != len(localitySet)+1 {
		t.Fatalf("fig9 rows = %d, want %d", len(table.Rows), len(localitySet)+1)
	}
	last := table.Rows[len(table.Rows)-1]
	if last[0] != "geomean" {
		t.Fatalf("last row %v, want geomean", last)
	}
}

func TestIssueHistogramShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	h := tinyHarness()
	hist, ratio, err := h.issueHistogram("vadd")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) == 0 {
		t.Fatal("empty histogram")
	}
	if ratio < 1 || ratio > float64(len(hist))+0.01 {
		t.Fatalf("ratio %.2f outside [1,%d]", ratio, len(hist))
	}
	// First entry is the completed (greedy) CTA: it must hold the max.
	for _, v := range hist[1:] {
		if v > hist[0] {
			t.Fatalf("resident CTA issued %v > completed CTA %v", v, hist[0])
		}
	}
}

func TestLowQuartileAndMedian(t *testing.T) {
	if got := lowQuartile([]int{0, 0, 0}); got != 0 {
		t.Errorf("lowQuartile(all zero) = %d", got)
	}
	if got := lowQuartile([]int{5, 1, 4, 2, 3}); got != 2 {
		t.Errorf("lowQuartile = %d, want 2", got)
	}
	if got := median([]int{5, 1, 4, 2, 3}); got != 3 {
		t.Errorf("median = %d, want 3", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %d", got)
	}
}

func TestRequestBuildersCarryOptions(t *testing.T) {
	h := tinyHarness()
	req := h.single("vadd", sim.Static(3), sm.PolicyBAWS)
	if len(req.Workloads) != 1 || req.Workloads[0] != "vadd" {
		t.Fatalf("workloads = %v", req.Workloads)
	}
	if req.Scale != workloads.ScaleTest || req.Cores != 4 {
		t.Fatalf("request lost harness options: %+v", req)
	}
	multi := h.multi([]string{"spmv", "sgemm"}, sim.Mixed(2), sm.PolicyGTO)
	if len(multi.Workloads) != 2 || multi.Sched.Name() != "mixed" {
		t.Fatalf("multi request = %+v", multi)
	}
}

// TestStaticAtMaxIsBaseline is what lets limited hand the top point of every
// static-limit sweep to the baseline request: for every suite kernel, a
// static limit at the occupancy maximum must produce the baseline's Outcome
// exactly — Result and (absent) limits alike.
func TestStaticAtMaxIsBaseline(t *testing.T) {
	h := New(Options{Scale: workloads.ScaleTest})
	type pair struct {
		name         string
		static, base sim.Outcome
	}
	var pairs []pair
	if _, err := h.experiment(func(r *resolver) *Table {
		pairs = pairs[:0]
		for _, name := range workloads.Names() {
			static := r.get(h.single(name, sim.Static(h.maxResident(name)), sm.PolicyGTO))
			pairs = append(pairs, pair{name, static, r.get(h.single(name, sim.Baseline(), sm.PolicyGTO))})
		}
		return &Table{}
	}); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if !reflect.DeepEqual(p.static, p.base) {
			t.Errorf("%s: Static(%d) outcome\n%+v\ndiffers from the baseline's\n%+v",
				p.name, h.maxResident(p.name), p.static, p.base)
		}
	}
	if got, want := h.limited("spmv", h.maxResident("spmv")).Key(), h.single("spmv", sim.Baseline(), sm.PolicyGTO).Key(); got != want {
		t.Errorf("limited at the maximum = %s, want the baseline request %s", got, want)
	}
}

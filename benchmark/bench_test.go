package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"gpusched/internal/gpu"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n, want int
	}{{5, 50}, {19, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {30000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 50 && c.n*(100-p) < 10*100 {
			t.Errorf("tailPercentile(%d) = %d leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := median(v); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(v, 1); got != 4 {
		t.Errorf("max = %g, want 4", got)
	}
	if !reflect.DeepEqual(v, []float64{4, 1, 3, 2}) {
		t.Errorf("quantile reordered its input: %v", v)
	}
}

func TestBlockScheduleReproducibleAndMixed(t *testing.T) {
	fs := fullSizes.Fleet
	draw := func(seed int64) [][]int {
		rng := rand.New(rand.NewSource(seed))
		var blocks [][]int
		for b := 0; b < 4; b++ {
			keys, _ := blockSchedule(rng, fs, b)
			blocks = append(blocks, keys)
		}
		return blocks
	}
	if !reflect.DeepEqual(draw(7), draw(7)) {
		t.Fatal("the same seed drew two different schedules")
	}
	if reflect.DeepEqual(draw(7), draw(8)) {
		t.Fatal("two seeds drew the same schedule")
	}
	seen := map[int]bool{}
	for k := 0; k < fs.Window; k++ {
		seen[k] = true // sent while the window was filled
	}
	for b, keys := range draw(7) {
		if len(keys) != fs.Block {
			t.Fatalf("block %d has %d requests, want %d", b, len(keys), fs.Block)
		}
		repeats := 0
		for _, k := range keys {
			if seen[k] {
				repeats++
			}
		}
		// Repeats only name keys of earlier blocks, so a repeat never
		// waits on a simulation still in flight.
		if want := fs.Block - fs.NewPerBlock; repeats != want {
			t.Errorf("block %d has %d repeats of earlier keys, want %d", b, repeats, want)
		}
		for _, k := range keys {
			seen[k] = true
		}
	}
	if share := 1 - float64(fs.NewPerBlock)/float64(fs.Block); share != 0.95 {
		t.Errorf("repeat share is %g, README and BENCHMARK.json say 0.95", share)
	}
	if fs.NewPerBlock%len(fleetShapes()) != 0 || fs.Window%len(fleetShapes()) != 0 {
		t.Error("a block must hold every shape equally often, or blocks differ in cost")
	}
}

func TestLayerOf(t *testing.T) {
	stack := func(funcs ...string) []string { return funcs }
	for _, c := range []struct {
		funcs       []string
		layer, part string
	}{
		{stack("gpusched/internal/sm.(*scheduler).pickGreedyOldest", "gpusched/internal/sm.(*SM).Tick"), "sm", "issue"},
		{stack("gpusched/internal/sm.(*Warp).operandsReady", "gpusched/internal/sm.(*SM).canIssue"), "sm", "issue"},
		{stack("gpusched/internal/sm.(*SM).issueOne.func1", "gpusched/internal/sm.(*SM).Tick"), "sm", "issue"},
		{stack("gpusched/internal/sm.(*ldstUnit).tickGlobal", "gpusched/internal/sm.(*SM).Tick"), "sm", "ldst"},
		{stack("gpusched/internal/sm.(*SM).Tick", "gpusched/internal/gpu.(*GPU).RunContext.func1"), "sm", ""},
		{stack("gpusched/internal/isa.(*SliceProgram).Next", "gpusched/internal/sm.(*Warp).fetch"), "sm", ""},
		{stack("gpusched/internal/isa.(*SliceProgram).Next", "gpusched/internal/workloads.ChaseSpec.func1"), "workloads", ""},
		{stack("gpusched/internal/mem.(*Cache).Access", "gpusched/internal/mem.(*L2Partition).Tick", "gpusched/internal/mem.(*System).TickShard"), "mem", "xbar_l2"},
		{stack("gpusched/internal/mem.(*MSHR).Add", "gpusched/internal/mem.(*L1).Access", "gpusched/internal/sm.(*ldstUnit).tickGlobal"), "mem", "l1"},
		{stack("gpusched/internal/mem.(*pipe[go.shape.struct { gpusched/internal/mem.Addr uint64 }]).Push", "gpusched/internal/mem.(*System).Tick"), "mem", "xbar_l2"},
		{stack("gpusched/internal/mem.(*DRAMChannel).Tick", "gpusched/internal/mem.(*System).TickShard"), "mem", "dram"},
		{stack("gpusched/internal/mem.Coalesce", "gpusched/internal/sm.(*ldstUnit).accept"), "mem", "l1"},
		{stack("gpusched/internal/gpu/parexec.(*Pool).Run", "gpusched/internal/gpu.(*GPU).RunContext"), "parexec", ""},
		{stack("gpusched/internal/core.(*RoundRobin).Dispatch", "gpusched/internal/gpu.(*GPU).RunContext"), "core", ""},
		{stack("runtime.mallocgc", "gpusched/internal/sm.(*SM).AddCTA"), "runtime", ""},
		{stack("internal/runtime/atomic.(*Uint32).Load", "gpusched/internal/gpu/parexec.(*Pool).wait"), "runtime", ""},
		{stack("internal/runtime/syscall.Syscall6", "syscall.write", "net/http.(*conn).serve"), "other", ""},
		{stack("encoding/json.Marshal", "gpusched/internal/server.writeJSON", "net/http.(*conn).serve"), "server", ""},
		{stack("sort.Strings", "gpusched/internal/harness.(*Table).Render", "main.figsPass"), "harness", ""},
		{stack("crypto/sha256.block", "gpusched/internal/fleet.score", "gpusched/internal/fleet.(*Ring).Candidates"), "fleet", ""},
		{stack("gpusched/internal/sim.(*Service).Run", "gpusched/internal/server.(*Server).handleSimulate"), "sim", ""},
		{stack("encoding/json.Unmarshal", "main.(*fleetEnv).request"), "other", ""},
		{stack("gpusched/internal/stats.GeoMean", "main.figsPass"), "other", ""},
	} {
		layer, part, err := layerOf(c.funcs)
		if err != nil || layer != c.layer || part != c.part {
			t.Errorf("layerOf(%q) = %q, %q, %v; want %q, %q", c.funcs[0], layer, part, err, c.layer, c.part)
		}
	}
	if _, _, err := layerOf(stack("gpusched/internal/newlayer.Do", "main.main")); err == nil {
		t.Error("a package under gpusched/internal/ without a layer must be an error, not somebody else's time")
	}
	// Every layer the table names is one the metric list reports.
	for pkg, layer := range layerOfPackage {
		if layer == "" {
			continue
		}
		found := false
		for _, d := range perLayer {
			found = found || d.Name == layer+".cpu_share"
		}
		if !found {
			t.Errorf("package %s maps to layer %q, which has no cpu_share metric", pkg, layer)
		}
	}
}

// TestSmokeEveryWorkload runs each workload at the test sizes, untraced,
// and the two that exercise the profile and the serving spans traced as
// well.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range allWorkloads {
		rec, err := runWorkload(w, testSizes, 1, 0, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rec.Correct || rec.Attempted == 0 {
			t.Errorf("%s: correct=%t attempted=%d failures=%v", w.name, rec.Correct, rec.Attempted, rec.Failures)
		}
		for _, d := range endToEnd {
			if v, ok := rec.metrics()[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.name, d.Name, v, d.Unit)
			}
		}
		var out bytes.Buffer
		if code := report(rec, &out); code != 0 {
			t.Errorf("%s: exit status %d", w.name, code)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last) != 4 {
			t.Errorf("%s: last line is not the four-key result object: %s", w.name, lines[len(lines)-1])
		}
	}
	for _, name := range []string{"sim-memsys", "fleet-serve"} {
		w, _ := workloadByName(name)
		rec, err := runWorkload(w, testSizes, 1, 0, true)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if !rec.Correct {
			t.Errorf("%s traced: failures=%v", name, rec.Failures)
		}
		for _, d := range perLayer {
			if _, ok := rec.metrics()[d.Name]; !ok {
				t.Errorf("%s traced: no %s", name, d.Name)
			}
		}
		root, _ := repoRoot()
		for _, f := range []string{rec.SpansFile, rec.ProfileFile} {
			if st, err := os.Stat(filepath.Join(root, f)); err != nil || st.Size() == 0 {
				t.Errorf("%s traced: %s not written", name, f)
			}
		}
		measured := []string{"gpu.run_s", "mem.l1_accesses", "sm.instr_issued"} // too short a run for the profile to hold samples
		if name == "fleet-serve" {
			measured = []string{"client.rtt_hit_us_p50", "client.rtt_miss_ms_p50", "server.handle_hit_us_p50", "server.handle_miss_ms_p50",
				"fleet.route_overhead_us_p50", "sim.run_disk_hit_us", "fleet.peer_fetch_us", "sim.dedup_ratio"}
		}
		for _, m := range measured {
			if rec.PerLayer[m] <= 0 {
				t.Errorf("%s traced: %s = %g, want a positive value", name, m, rec.PerLayer[m])
			}
		}
	}
}

// TestFailedCheckFailsTheRun shows the exit status when an output is wrong.
func TestFailedCheckFailsTheRun(t *testing.T) {
	bad := gpu.Result{Cycles: 10, TimedOut: true}
	if got := checkResult("x", bad, 4); len(got) < 2 {
		t.Fatalf("a timed-out result with no CTA retired passed the check: %v", got)
	}
	broken := workload{name: "broken", setup: func(sizes, *tracer) (*instance, error) {
		items := []item{{kind: "sim", run: func(*tracer, string) itemOut {
			return itemOut{ops: 1, failures: checkResult("sim", bad, 4)}
		}}}
		return &instance{pass: func(*rand.Rand) []item { return items }}, nil
	}}
	rec, err := runWorkload(broken, testSizes, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := report(rec, &out); code != 1 || rec.Correct || rec.Failed == 0 {
		t.Errorf("exit status %d, correct %t, failed %d; want 1, false, > 0", code, rec.Correct, rec.Failed)
	}

	// Results that change from one pass to the next fail it too.
	n := 0
	drifting := workload{name: "drifting", setup: func(sizes, *tracer) (*instance, error) {
		items := []item{{kind: "sim", run: func(*tracer, string) itemOut {
			n++
			return itemOut{ops: 1, canon: canonical(n)}
		}}}
		return &instance{pass: func(*rand.Rand) []item { return items }}, nil
	}}
	if rec, err = runWorkload(drifting, testSizes, 1, 0, false); err != nil || rec.Correct {
		t.Errorf("a workload whose results differ between passes was reported correct (err %v)", err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(wall float64, q1, q3 float64, digest string, traced bool) *record {
		e2e := map[string]summary{}
		for _, d := range endToEnd {
			e2e[d.Name] = summary{Median: 1, Q1: 1, Q3: 1, N: 5}
		}
		e2e["wall_s"] = summary{Median: wall, Q1: q1, Q3: q3, N: 5}
		return &record{Workload: "sim-issue", Seed: 1, Traced: traced, Correct: true, Digest: digest, PassCycles: 100, PassInstr: 50, EndToEnd: e2e}
	}
	dir := t.TempDir()
	write := func(name string, recs ...*record) string {
		path := filepath.Join(dir, name)
		if err := writeRecords(path, recs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(10, 9.9, 10.1, "d1", false))
	for _, c := range []struct {
		name   string
		other  *record
		status int
		want   string
	}{
		{"same", mk(10.5, 10.4, 10.6, "d1", false), 0, "PASS"},
		{"slower", mk(14, 13.9, 14.1, "d1", false), 1, "FAIL"},
		{"noisy", mk(14, 10, 18, "d1", false), 0, "UNRESOLVED"},
		{"digest", mk(10, 9.9, 10.1, "d2", false), 1, "DIFFERENT"},
		{"traced", mk(10, 9.9, 10.1, "d1", true), 2, ""},
	} {
		var out, errOut bytes.Buffer
		status := compareFiles(base, write(c.name+".json", c.other), &out, &errOut)
		if status != c.status || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: status %d, want %d with %q in:\n%s%s", c.name, status, c.status, c.want, out.String(), errOut.String())
		}
	}
	// Ten runs a side: the spread is taken between runs. Every run of the
	// change beating every run of the base resolves a noisy metric.
	var slow, fast []*record
	for i := 0; i < 10; i++ {
		slow = append(slow, mk(10+float64(i), 0, 0, "d1", false))
		fast = append(fast, mk(5+0.4*float64(i), 0, 0, "d1", false))
	}
	var out, errOut bytes.Buffer
	if status := compareFiles(write("slow.json", slow...), write("fast.json", fast...), &out, &errOut); status != 0 || strings.Contains(out.String(), "UNRESOLVED") {
		t.Errorf("a change that wins every pairing was not passed:\n%s", out.String())
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the program's own tables and to
// the limits the driver puts on the file.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's list:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Error("per_layer differs from the program's list")
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads, program has %d", len(doc.Workloads), len(allWorkloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}
	for i, w := range doc.Workloads {
		check(w.Name)
		if w.Name != allWorkloads[i].name || w.Why != allWorkloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q does not match the program's, or its why is too long", w.Name)
		}
	}
	setup := false
	for _, d := range append(append([]metricDef(nil), doc.EndToEnd...), doc.PerLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") || d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %+v is outside the file's limits", d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && d.Bound > 0)
	}
	if !setup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 {
		t.Error("too many metrics")
	}
}

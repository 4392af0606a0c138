package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gpusched/internal/core"
	"gpusched/internal/sim"
	"gpusched/internal/sm"
	"gpusched/internal/workloads"
)

func tinyRequest(name string, sched sim.SchedSpec) sim.Request {
	return sim.Request{
		Workloads: []string{name},
		Sched:     sched,
		Warp:      sm.PolicyGTO,
		Scale:     workloads.ScaleTest,
		Cores:     4,
	}
}

func TestParseSched(t *testing.T) {
	ok := []struct {
		in         string
		name       string          // display name
		dispatcher core.Dispatcher // the type NewDispatcher builds
	}{
		{"baseline", "baseline", &core.RoundRobin{}},
		{"lcs", "lcs", &core.LCS{}},
		{"adaptive", "lcs-adaptive", &core.AdaptiveLCS{}},
		{"dyncta", "dyncta", &core.DynCTA{}},
		{"bcs", "bcs", &core.BCS{}},
		{"bcs:4", "bcs", &core.BCS{}},
		{"static:3", "static-3", &core.Limited{}},
		{"sequential", "sequential", &core.Sequential{}},
		{"spatial", "spatial", &core.Spatial{}},
		{"mixed:2", "mixed", &core.Mixed{}},
		{"preemptive", "preemptive", &core.Preemptive{}},
		{"preemptive:60000", "preemptive", &core.Preemptive{}},
	}
	for _, c := range ok {
		s, err := sim.ParseSched(c.in)
		if err != nil {
			t.Errorf("ParseSched(%q): %v", c.in, err)
			continue
		}
		if got := s.Name(); got != c.name {
			t.Errorf("ParseSched(%q).Name() = %q, want %q", c.in, got, c.name)
		}
		if got, want := fmt.Sprintf("%T", s.NewDispatcher()), fmt.Sprintf("%T", c.dispatcher); got != want {
			t.Errorf("ParseSched(%q) dispatcher = %s, want %s", c.in, got, want)
		}
	}
	// One spelling per name, one argument at most: the retired aliases,
	// a spatial split and a second preemptive argument are refused.
	for _, bad := range []string{
		"", "nope", "static", "static:x", "static:-1", "bcs:y", "lcs:3",
		"preemptive:x", "preemptive:-5", "preemptive:1:60000", "bcs:2:3", "lcs:1:2",
		"spatial:8", "spatial:0", "base", "rr", "lcs-adaptive", "seq", "preempt",
	} {
		if _, err := sim.ParseSched(bad); err == nil {
			t.Errorf("ParseSched(%q) accepted", bad)
		}
	}
}

// TestSchedStringRoundTrips pins the cache-key rendering: parsing a spec's
// String() must yield an equivalent spec, and defaults must normalize
// (bcs == bcs:2 — same key, same simulation).
func TestSchedStringRoundTrips(t *testing.T) {
	specs := []sim.SchedSpec{
		sim.Baseline(), sim.LCS(), sim.AdaptiveLCS(), sim.DynCTA(),
		sim.BCS(0), sim.BCS(4), sim.Static(3), sim.Sequential(),
		sim.Spatial(), sim.Mixed(2),
		sim.Preemptive(0), sim.Preemptive(60000),
	}
	for _, s := range specs {
		back, err := sim.ParseSched(s.String())
		if err != nil {
			t.Errorf("ParseSched(%q): %v", s.String(), err)
			continue
		}
		if back.String() != s.String() {
			t.Errorf("round trip %q -> %q", s.String(), back.String())
		}
	}
	if sim.BCS(0).String() != sim.BCS(2).String() {
		t.Errorf("BCS default width not normalized: %q vs %q", sim.BCS(0).String(), sim.BCS(2).String())
	}
}

// TestRequestKeyDistinguishesInputs: every field of a Request must be
// visible in its Key, or two different simulations would share a cache slot.
func TestRequestKeyDistinguishesInputs(t *testing.T) {
	base := tinyRequest("vadd", sim.Baseline())
	variants := []sim.Request{
		tinyRequest("spmv", sim.Baseline()),
		tinyRequest("vadd", sim.LCS()),
		tinyRequest("vadd", sim.Static(3)),
		{Workloads: []string{"vadd", "spmv"}, Sched: sim.Baseline(), Warp: sm.PolicyGTO, Scale: workloads.ScaleTest, Cores: 4},
	}
	mutate := []func(*sim.Request){
		func(r *sim.Request) { r.Warp = sm.PolicyLRR },
		func(r *sim.Request) { r.Scale = workloads.ScaleSmall },
		func(r *sim.Request) { r.Cores = 8 },
		func(r *sim.Request) { r.L1Bytes = 16 * 1024 },
		func(r *sim.Request) { r.DRAMSchedFCFS = true },
		func(r *sim.Request) { r.MaxCycles = 1000 },
	}
	for _, fn := range mutate {
		r := base
		fn(&r)
		variants = append(variants, r)
	}
	seen := map[string]bool{base.Key(): true}
	for _, v := range variants {
		k := v.Key()
		if seen[k] {
			t.Errorf("key collision: %q", k)
		}
		seen[k] = true
	}
	if base.Key() != tinyRequest("vadd", sim.Baseline()).Key() {
		t.Error("identical requests produced different keys")
	}
}

// TestRequestKeyText pins the exact text of Key: it names the disk-cache
// file and the peer-cache address, and the router attests replies by it, so
// a change to it orphans every cached result. Each body sets one field.
func TestRequestKeyText(t *testing.T) {
	const base = "w=vadd|sched=baseline|warp=lrr|scale=tiny|cores=0|l1=0|fcfs=false|max=0"
	for _, c := range []struct{ body, key string }{
		{`{"workloads":["vadd"]}`, base},
		{`{"workloads":["vadd","spmv"]}`, "w=vadd+spmv|sched=baseline|warp=lrr|scale=tiny|cores=0|l1=0|fcfs=false|max=0"},
		{`{"workloads":["vadd","spmv"],"arrivals":[0,500]}`, "w=vadd+spmv|sched=baseline|warp=lrr|scale=tiny|cores=0|l1=0|fcfs=false|max=0|arr=0+500"},
		{`{"workloads":["vadd","spmv"],"arrivals":[0,0]}`, "w=vadd+spmv|sched=baseline|warp=lrr|scale=tiny|cores=0|l1=0|fcfs=false|max=0"},
		{`{"workloads":["vadd"],"sched":"lcs"}`, "w=vadd|sched=lcs|warp=lrr|scale=tiny|cores=0|l1=0|fcfs=false|max=0"},
		{`{"workloads":["vadd"],"sched":"bcs"}`, "w=vadd|sched=bcs:2|warp=lrr|scale=tiny|cores=0|l1=0|fcfs=false|max=0"},
		{`{"workloads":["vadd"],"sched":"static:3"}`, "w=vadd|sched=static:3|warp=lrr|scale=tiny|cores=0|l1=0|fcfs=false|max=0"},
		{`{"workloads":["vadd"],"sched":"spatial"}`, "w=vadd|sched=spatial|warp=lrr|scale=tiny|cores=0|l1=0|fcfs=false|max=0"},
		{`{"workloads":["vadd"],"sched":"preemptive"}`, "w=vadd|sched=preemptive:0|warp=lrr|scale=tiny|cores=0|l1=0|fcfs=false|max=0"},
		{`{"workloads":["vadd"],"sched":"preemptive:60000"}`, "w=vadd|sched=preemptive:60000|warp=lrr|scale=tiny|cores=0|l1=0|fcfs=false|max=0"},
		{`{"workloads":["vadd"],"warp":"gto"}`, "w=vadd|sched=baseline|warp=gto|scale=tiny|cores=0|l1=0|fcfs=false|max=0"},
		{`{"workloads":["vadd"],"warp":"baws"}`, "w=vadd|sched=baseline|warp=baws|scale=tiny|cores=0|l1=0|fcfs=false|max=0"},
		{`{"workloads":["vadd"],"warp":"two-level"}`, "w=vadd|sched=baseline|warp=two-level|scale=tiny|cores=0|l1=0|fcfs=false|max=0"},
		{`{"workloads":["vadd"],"scale":"tiny"}`, base},
		{`{"workloads":["vadd"],"scale":"small"}`, "w=vadd|sched=baseline|warp=lrr|scale=small|cores=0|l1=0|fcfs=false|max=0"},
		{`{"workloads":["vadd"],"scale":"full"}`, "w=vadd|sched=baseline|warp=lrr|scale=full|cores=0|l1=0|fcfs=false|max=0"},
		{`{"workloads":["vadd"],"cores":4}`, "w=vadd|sched=baseline|warp=lrr|scale=tiny|cores=4|l1=0|fcfs=false|max=0"},
		{`{"workloads":["vadd"],"l1_bytes":32768}`, "w=vadd|sched=baseline|warp=lrr|scale=tiny|cores=0|l1=32768|fcfs=false|max=0"},
		{`{"workloads":["vadd"],"dram_fcfs":true}`, "w=vadd|sched=baseline|warp=lrr|scale=tiny|cores=0|l1=0|fcfs=true|max=0"},
		{`{"workloads":["vadd"],"max_cycles":5000}`, "w=vadd|sched=baseline|warp=lrr|scale=tiny|cores=0|l1=0|fcfs=false|max=5000"},
	} {
		var r sim.Request
		if err := json.Unmarshal([]byte(c.body), &r); err != nil {
			t.Errorf("unmarshal %s: %v", c.body, err)
			continue
		}
		if got := r.Key(); got != c.key {
			t.Errorf("%s keys as\n  %q, want\n  %q", c.body, got, c.key)
		}
	}
}

// TestStatsAddSumsEveryField: Add sums and Sub subtracts every exported
// field of Stats, so a new counter cannot silently drop out of the fleet's
// aggregate (GET /v1/fleet/stats) or a load harness's delta.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b sim.Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	set := func(f reflect.Value, n int) {
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(n))
		case reflect.Uint64:
			f.SetUint(uint64(n))
		case reflect.Float64:
			f.SetFloat(float64(n))
		default:
			t.Fatalf("Stats field of kind %s: extend Add, Sub and this test", f.Kind())
		}
	}
	for i := 0; i < va.NumField(); i++ {
		set(va.Field(i), i+1)
		set(vb.Field(i), 100*(i+1))
	}
	var want sim.Stats
	vw := reflect.ValueOf(&want).Elem()
	for i := 0; i < vw.NumField(); i++ {
		set(vw.Field(i), 101*(i+1))
	}
	sum := a
	sum.Add(b)
	if sum != want {
		t.Errorf("Add = %+v, want every field summed: %+v", sum, want)
	}
	sum.Sub(b)
	if sum != a {
		t.Errorf("Sub = %+v, want %+v back", sum, a)
	}
	if hits := a.MemoHits + a.DiskHits + a.PeerHits; a.Hits() != hits || sim.DedupRate(hits, 1) != float64(hits)/float64(hits+1) {
		t.Errorf("Hits() = %d, DedupRate(%d, 1) = %v: want memo + disk + peer hits and their share", a.Hits(), hits, sim.DedupRate(hits, 1))
	}
}

// TestSingleflightSimulatesOnce is the regression test for the
// check-then-act race the old harness memo had: N concurrent submissions of
// one request must run the simulator exactly once and all observe the same
// outcome.
func TestSingleflightSimulatesOnce(t *testing.T) {
	svc := sim.NewService(sim.Options{})
	req := tinyRequest("vadd", sim.Baseline())
	const n = 16
	var wg sync.WaitGroup
	outs := make([]sim.Outcome, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = svc.Run(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if outs[i].Result.Cycles != outs[0].Result.Cycles {
			t.Fatalf("run %d saw %d cycles, run 0 saw %d", i, outs[i].Result.Cycles, outs[0].Result.Cycles)
		}
	}
	st := svc.Stats()
	if st.Simulated != 1 {
		t.Fatalf("Simulated = %d, want 1", st.Simulated)
	}
	if st.MemoHits != n-1 {
		t.Fatalf("MemoHits = %d, want %d", st.MemoHits, n-1)
	}
}

func TestRunErrors(t *testing.T) {
	svc := sim.NewService(sim.Options{})
	ctx := context.Background()
	if _, err := svc.Run(ctx, tinyRequest("no-such-workload", sim.Baseline())); err == nil {
		t.Error("unknown workload did not error")
	} else if !strings.Contains(err.Error(), "no-such-workload") {
		t.Errorf("error %v does not name the workload", err)
	}
	if _, err := svc.Run(ctx, sim.Request{Sched: sim.Baseline()}); err == nil {
		t.Error("empty request did not error")
	}
	// A kernel that cannot fit the machine is a build error, not a panic.
	bad := tinyRequest("vadd", sim.Baseline())
	bad.Cores = 1000
	if _, err := svc.Run(ctx, bad); err == nil {
		t.Error("oversized core count did not error")
	}
	// A hopeless cycle bound surfaces as a timeout error.
	slow := tinyRequest("spmv", sim.Baseline())
	slow.MaxCycles = 100
	if _, err := svc.Run(ctx, slow); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("starved run returned %v, want timeout error", err)
	}
	if st := svc.Stats(); st.Simulated != 1 {
		t.Errorf("Simulated = %d, want 1 (only the timed-out run executed)", st.Simulated)
	}
}

// TestCancellationStopsMidFlight: canceling the context stops a running
// simulation within the poll interval and surfaces context.Canceled. The
// canceled flight must not be memoized.
func TestCancellationStopsMidFlight(t *testing.T) {
	svc := sim.NewService(sim.Options{})
	// A full-scale run takes far longer than the cancellation delay.
	req := sim.Request{
		Workloads: []string{"sgemm"},
		Sched:     sim.Baseline(),
		Warp:      sm.PolicyGTO,
		Scale:     workloads.ScaleFull,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := svc.Run(ctx, req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if st := svc.Stats(); st.Simulated != 0 {
		t.Fatalf("canceled run counted as simulated (%d)", st.Simulated)
	}
	// Pre-canceled contexts fail fast without touching the simulator.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := svc.Run(ctx2, tinyRequest("vadd", sim.Baseline())); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Run returned %v", err)
	}
}

// TestDiskCacheRoundTrip: a second Service pointed at the same directory
// satisfies the request from disk without simulating.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	req := tinyRequest("vadd", sim.LCS())
	ctx := context.Background()

	first := sim.NewService(sim.Options{CacheDir: dir})
	a, err := first.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st := first.Stats(); st.Simulated != 1 || st.DiskHits != 0 {
		t.Fatalf("cold stats = %+v", st)
	}

	second := sim.NewService(sim.Options{CacheDir: dir})
	b, err := second.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.Simulated != 0 || st.DiskHits != 1 {
		t.Fatalf("warm stats = %+v", st)
	}
	if a.Result.Cycles != b.Result.Cycles || a.Result.InstrIssued != b.Result.InstrIssued {
		t.Fatalf("disk outcome differs: %d/%d vs %d/%d cycles/instr",
			a.Result.Cycles, a.Result.InstrIssued, b.Result.Cycles, b.Result.InstrIssued)
	}
	// LCS limit decisions survive the round trip too.
	if len(a.Limits) == 0 || len(b.Limits) != len(a.Limits) {
		t.Fatalf("limits lost in cache: %v vs %v", a.Limits, b.Limits)
	}
}

// TestRunAllJoinsAllErrors: RunAll must surface every failure, not just
// the first, each naming its request's key — paperbench reports each broken
// experiment by name.
func TestRunAllJoinsAllErrors(t *testing.T) {
	svc := sim.NewService(sim.Options{})
	wide := tinyRequest("stencil", sim.Baseline())
	wide.Cores = 300 // a machine Validate refuses
	reqs := []sim.Request{
		tinyRequest("vadd", sim.Baseline()),
		tinyRequest("no-such-workload", sim.Baseline()),
		tinyRequest("also-missing", sim.Baseline()),
		wide,
	}
	err := svc.RunAll(context.Background(), reqs)
	if err == nil {
		t.Fatal("RunAll swallowed the errors")
	}
	for _, want := range []string{"no-such-workload", "also-missing", wide.Key()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q does not name %q", err, want)
		}
	}
	// The join must list failures in request order, not goroutine-completion
	// order: paperbench output (and anything diffing it) sees this string.
	if strings.Index(err.Error(), "no-such-workload") > strings.Index(err.Error(), "also-missing") {
		t.Errorf("joined error is not in request order: %q", err)
	}
	if err := svc.RunAll(context.Background(), []sim.Request{tinyRequest("vadd", sim.Baseline())}); err != nil {
		t.Errorf("all-good RunAll returned %v", err)
	}
}

// TestProgressWritesSerialized: concurrent simulations share one Progress
// writer; the Service must serialize writes (a bytes.Buffer is not
// goroutine-safe — the race detector enforces this) and keep lines whole.
func TestProgressWritesSerialized(t *testing.T) {
	var buf bytes.Buffer
	svc := sim.NewService(sim.Options{Progress: &buf})
	names := []string{"vadd", "spmv", "stencil", "reduce"}
	var reqs []sim.Request
	for _, n := range names {
		reqs = append(reqs, tinyRequest(n, sim.Baseline()))
	}
	if err := svc.RunAll(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(names) {
		t.Fatalf("got %d progress lines, want %d:\n%s", len(lines), len(names), buf.String())
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "ran ") || !strings.HasSuffix(l, "cycles") {
			t.Errorf("interleaved or malformed progress line %q", l)
		}
	}
}

// TestFlightEviction: with MaxFlights set, completed flights are evicted
// oldest-first, counted in Stats, and a re-run of an evicted request
// simulates afresh (no disk cache here to backstop).
func TestFlightEviction(t *testing.T) {
	svc := sim.NewService(sim.Options{MaxFlights: 1})
	ctx := context.Background()
	a := tinyRequest("vadd", sim.Baseline())
	b := tinyRequest("spmv", sim.Baseline())
	for _, r := range []sim.Request{a, b} {
		if _, err := svc.Run(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	if st := svc.Stats(); st.Evicted != 1 {
		t.Fatalf("after 2 runs at cap 1: Evicted = %d, want 1", st.Evicted)
	}
	// a was evicted: running it again is a fresh simulation, not a memo hit.
	if _, err := svc.Run(ctx, a); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Simulated != 3 || st.MemoHits != 0 {
		t.Fatalf("stats after re-run = %+v, want 3 simulated, 0 memo hits", st)
	}
	// b is now the evicted one; the still-memoized a re-run memo-hits.
	if _, err := svc.Run(ctx, a); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.MemoHits != 1 {
		t.Fatalf("memoized re-run stats = %+v, want 1 memo hit", st)
	}
}

// TestFlightEvictionDiskBackstop: an evicted flight whose outcome reached
// the disk cache is recalled from disk, not resimulated.
func TestFlightEvictionDiskBackstop(t *testing.T) {
	svc := sim.NewService(sim.Options{MaxFlights: 1, CacheDir: t.TempDir()})
	ctx := context.Background()
	a := tinyRequest("vadd", sim.Baseline())
	b := tinyRequest("spmv", sim.Baseline())
	for _, r := range []sim.Request{a, b, a} {
		if _, err := svc.Run(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.Simulated != 2 || st.DiskHits != 1 || st.Evicted < 1 {
		t.Fatalf("stats = %+v, want 2 simulated, 1 disk hit, >=1 evicted", st)
	}
}

// TestRequestJSONRoundTrip: the wire form must preserve request identity —
// unmarshal(marshal(r)) has r's cache key — and reject bad spellings.
func TestRequestJSONRoundTrip(t *testing.T) {
	reqs := []sim.Request{
		{},
		tinyRequest("vadd", sim.Baseline()),
		tinyRequest("spmv", sim.BCS(4)),
		{
			Workloads: []string{"stencil", "vadd"}, Sched: sim.Static(3),
			Warp: sm.PolicyBAWS, Scale: workloads.ScaleSmall,
			Cores: 8, L1Bytes: 16 << 10, DRAMSchedFCFS: true, MaxCycles: 5000,
		},
		{
			Workloads: []string{"spmv", "dct8x8"}, Arrivals: []uint64{0, 40000},
			Sched: sim.Preemptive(120000), Scale: workloads.ScaleSmall, Cores: 4,
		},
		// All-zero arrivals are the zero value: same key.
		{Workloads: []string{"vadd"}, Arrivals: []uint64{0}},
	}
	for _, r := range reqs {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal %+v: %v", r, err)
		}
		var back sim.Request
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back.Key() != r.Key() {
			t.Errorf("round trip changed key: %q -> %q (wire %s)", r.Key(), back.Key(), data)
		}
	}
	// Omitted fields keep zero-value defaults; the canonical parsers gate
	// bad spellings; envelope fields are ignored.
	var min sim.Request
	if err := json.Unmarshal([]byte(`{"workloads":["vadd"],"timeout_ms":5}`), &min); err != nil {
		t.Fatal(err)
	}
	if min.Key() != (sim.Request{Workloads: []string{"vadd"}}).Key() {
		t.Errorf("minimal request key = %q", min.Key())
	}
	// The retired execution knob no_fast_forward decodes, validates and keys
	// like its absence, and the default key is unchanged, so cache entries
	// written while the knob existed stay valid.
	const defaultKey = "w=vadd|sched=baseline|warp=lrr|scale=tiny|cores=0|l1=0|fcfs=false|max=0"
	var retired sim.Request
	if err := json.Unmarshal([]byte(`{"workloads":["vadd"],"no_fast_forward":true}`), &retired); err != nil {
		t.Fatalf("retired no_fast_forward field rejected: %v", err)
	}
	if err := retired.Validate(); err != nil {
		t.Errorf("retired no_fast_forward field fails Validate: %v", err)
	}
	if retired.Key() != defaultKey || min.Key() != defaultKey {
		t.Errorf("keys %q (no_fast_forward) and %q (minimal), want %q", retired.Key(), min.Key(), defaultKey)
	}
	for _, bad := range []string{
		`{"workloads":["vadd"],"sched":"nope"}`,
		`{"workloads":["vadd"],"warp":"nope"}`,
		`{"workloads":["vadd"],"scale":"nope"}`,
		`{"workloads":["vadd"],"sched":3}`,
		`{"workloads":["vadd"],"sched":"rr"}`,
		`{"workloads":["vadd"],"warp":"twolevel"}`,
		`{"workloads":["vadd"],"scale":"test"}`,
		`{"workloads":["vadd"],"warp":""}`,
		`{"workloads":["vadd"],"scale":""}`,
		`{"workloads":"vadd"}`,
	} {
		var r sim.Request
		if err := json.Unmarshal([]byte(bad), &r); err == nil {
			t.Errorf("unmarshal accepted %s", bad)
		}
	}
	// Decreasing arrivals parse but fail validation.
	var dec sim.Request
	if err := json.Unmarshal([]byte(`{"workloads":["spmv","vadd"],"arrivals":[500,100]}`), &dec); err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(); err == nil {
		t.Error("decreasing arrivals passed Validate")
	}
	// Negative size overrides decode but fail Validate: config ignores
	// them, so they would simulate the default machine under a cores=-1 or
	// l1=-1 key of their own.
	for _, body := range []string{
		`{"workloads":["vadd"],"cores":-1}`,
		`{"workloads":["vadd"],"l1_bytes":-1}`,
	} {
		var bad sim.Request
		if err := json.Unmarshal([]byte(body), &bad); err != nil {
			t.Fatalf("unmarshal %s: %v", body, err)
		}
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %s", body)
		}
	}
}

// TestRequestJSONRefusesRetiredFields: the retired priority_kernel and
// deadline_cycles spelling is refused by the decode itself, whatever the
// scheduler, so no hop can run such a body without its deadline; the one
// spelling is "sched":"preemptive:D".
func TestRequestJSONRefusesRetiredFields(t *testing.T) {
	for _, bad := range []string{
		`{"workloads":["spmv","vadd"],"sched":"preemptive","priority_kernel":1,"deadline_cycles":90000}`,
		`{"workloads":["spmv","vadd"],"sched":"preemptive","priority_kernel":1}`,
		`{"workloads":["vadd"],"sched":"lcs","deadline_cycles":5}`,
		`{"workloads":["vadd"],"priority_kernel":null}`,
	} {
		var r sim.Request
		err := json.Unmarshal([]byte(bad), &r)
		if err == nil || !strings.Contains(err.Error(), `"sched":"preemptive:D"`) {
			t.Errorf("unmarshal %s = %v, want an error naming the sched spelling", bad, err)
		}
	}
	var r sim.Request
	if err := json.Unmarshal([]byte(`{"workloads":["spmv","vadd"],"sched":"preemptive:90000","arrivals":[0,40000]}`), &r); err != nil {
		t.Fatal(err)
	}
	if want := sim.Preemptive(90000); r.Sched != want || len(r.Arrivals) != 2 || r.Arrivals[1] != 40000 {
		t.Errorf("decoded sched %q arrivals %v, want %q and [0 40000]", r.Sched, r.Arrivals, want)
	}
	if err := r.Validate(); err != nil {
		t.Errorf("valid preemptive request rejected: %v", err)
	}
}

// TestValidateRejectsUnbuildableMachine: a request whose overrides select a
// machine gpu.Renew would refuse fails Validate, so a server answers it
// with a 400 before it takes a worker.
func TestValidateRejectsUnbuildableMachine(t *testing.T) {
	for _, tc := range []struct {
		req  sim.Request
		want string
	}{
		{sim.Request{Workloads: []string{"vadd"}, Cores: 100000}, "NumCores 100000"},
		{sim.Request{Workloads: []string{"vadd"}, L1Bytes: 3000}, "5 sets"},
		// An even split of one core gives kernel 0 none.
		{sim.Request{Workloads: []string{"vadd"}, Sched: sim.Spatial(), Cores: 1}, "workload 0 (vadd) no core"},
	} {
		err := tc.req.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want an error naming %q", tc.req, err, tc.want)
		}
		if _, err := tc.req.Build(nil); err == nil {
			t.Errorf("Build(%+v) succeeded", tc.req)
		}
	}
}

// TestValidateRefusesUnplacedWorkloads: spatial and mixed place kernels 0
// and 1 only, so a third workload is refused before it takes a worker
// instead of running until it times out; two are fine, and so are three
// under a policy that places every kernel.
func TestValidateRefusesUnplacedWorkloads(t *testing.T) {
	for _, sched := range []string{"mixed:2", "spatial"} {
		var r sim.Request
		body := `{"workloads":["vadd","kmeans","spmv"],"sched":"` + sched + `","scale":"tiny","cores":4}`
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatalf("unmarshal %s: %v", body, err)
		}
		if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "places 2 workloads, the request launches 3") {
			t.Errorf("Validate(%s) = %v, want the arity refusal", body, err)
		}
		if _, err := r.Build(nil); err == nil {
			t.Errorf("Build(%s) succeeded", body)
		}
		r.Workloads = r.Workloads[:2]
		if err := r.Validate(); err != nil {
			t.Errorf("%s with two workloads: %v", sched, err)
		}
	}
	three := sim.Request{Workloads: []string{"vadd", "kmeans", "spmv"}, Sched: sim.Sequential()}
	if err := three.Validate(); err != nil {
		t.Errorf("sequential with three workloads: %v", err)
	}
}

// TestPanickedSimulationLeavesKeyAnswerable: a simulation that panics
// passes the panic up its own Run and forgets its flight, so the next
// identical request simulates instead of waiting out its deadline.
func TestPanickedSimulationLeavesKeyAnswerable(t *testing.T) {
	var calls sync.Map
	svc := sim.NewService(sim.Options{PeerFetch: func(ctx context.Context, key string) (sim.Outcome, bool) {
		if _, again := calls.LoadOrStore(key, true); !again {
			panic("peer fetch failed")
		}
		return sim.Outcome{}, false
	}})
	req := tinyRequest("vadd", sim.Baseline())
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the first Run did not panic")
			}
		}()
		_, _ = svc.Run(context.Background(), req)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	out, err := svc.Run(ctx, req)
	if err != nil || out.Result.Cycles == 0 {
		t.Fatalf("second Run = %d cycles, %v; want an outcome", out.Result.Cycles, err)
	}
	if st := svc.Stats(); st.Simulated != 1 || st.MemoHits != 0 {
		t.Errorf("stats %+v, want one simulation and no memo hit", st)
	}
}

// TestBuildLeavesCatalogSpecs: a request's arrivals land on copies of the
// catalog's shared specs, so the catalog's own stay at arrival 0.
func TestBuildLeavesCatalogSpecs(t *testing.T) {
	r := sim.Request{Workloads: []string{"vadd", "spmv"}, Arrivals: []uint64{0, 500}, Scale: workloads.ScaleTest}
	m, err := r.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Run(); res.Kernels[1].LaunchCycle != 500 {
		t.Errorf("spmv launched at %d, want 500", res.Kernels[1].LaunchCycle)
	}
	for _, n := range r.Workloads {
		if w, _ := workloads.ByName(n); w.Build(workloads.ScaleTest).Arrival != 0 {
			t.Errorf("%s: the catalog's spec arrives at %d after a request set an arrival", n, w.Build(workloads.ScaleTest).Arrival)
		}
	}
}

// decoded keeps BenchmarkDecodeBody's result alive.
var decoded sim.Request

// BenchmarkDecodeBody times one decode of a simulate body shaped like the
// fleet-serve workload's: one workload under LCS, a MaxCycles salt and the
// benchmark's bench_id, which the decode ignores.
func BenchmarkDecodeBody(b *testing.B) {
	body, err := json.Marshal(sim.Request{Workloads: []string{"stencil"}, Sched: sim.LCS(), Warp: sm.PolicyGTO, MaxCycles: 20_000_007})
	if err != nil {
		b.Fatal(err)
	}
	body = append(body[:len(body)-1], `,"bench_id":17}`...)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if decoded, _, err = sim.DecodeBody(body); err != nil {
			b.Fatal(err)
		}
	}
}

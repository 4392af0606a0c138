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
		{"base", "baseline", &core.RoundRobin{}},
		{"rr", "baseline", &core.RoundRobin{}},
		{"lcs", "lcs", &core.LCS{}},
		{"adaptive", "lcs-adaptive", &core.AdaptiveLCS{}},
		{"lcs-adaptive", "lcs-adaptive", &core.AdaptiveLCS{}},
		{"dyncta", "dyncta", &core.DynCTA{}},
		{"bcs", "bcs", &core.BCS{}},
		{"bcs:4", "bcs", &core.BCS{}},
		{"static:3", "static-3", &core.Limited{}},
		{"sequential", "sequential", &core.Sequential{}},
		{"seq", "sequential", &core.Sequential{}},
		{"spatial", "spatial", &core.Spatial{}},
		{"spatial:8", "spatial", &core.Spatial{}},
		{"mixed:2", "mixed", &core.Mixed{}},
		{"preemptive", "preemptive", &core.Preemptive{}},
		{"preempt", "preemptive", &core.Preemptive{}},
		{"preemptive:2", "preemptive", &core.Preemptive{}},
		{"preemptive:1:60000", "preemptive", &core.Preemptive{}},
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
	for _, bad := range []string{
		"", "nope", "static", "static:x", "static:-1", "bcs:y", "lcs:3",
		"preemptive:x", "preemptive:1:y", "preemptive:1:-5", "bcs:2:3", "lcs:1:2",
	} {
		if _, err := sim.ParseSched(bad); err == nil {
			t.Errorf("ParseSched(%q) accepted", bad)
		}
	}
}

// TestFlagHelpNamesParse holds the warp and scale help strings to their
// parsers: every name a -warp or -size help lists must parse.
func TestFlagHelpNamesParse(t *testing.T) {
	for _, name := range strings.Split(sim.WarpFlagHelp, " | ") {
		if _, err := sim.ParseWarpPolicy(name); err != nil {
			t.Errorf("WarpFlagHelp lists %q: %v", name, err)
		}
	}
	for _, name := range strings.Split(sim.ScaleFlagHelp, " | ") {
		if _, err := sim.ParseScale(name); err != nil {
			t.Errorf("ScaleFlagHelp lists %q: %v", name, err)
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
		sim.Spatial(0), sim.Mixed(2),
		sim.Preemptive(1, 0), sim.Preemptive(2, 0), sim.Preemptive(1, 60000),
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

func TestParseWarpPolicy(t *testing.T) {
	ok := map[string]sm.Policy{
		"lrr": sm.PolicyLRR, "gto": sm.PolicyGTO, "baws": sm.PolicyBAWS,
		"two-level": sm.PolicyTwoLevel, "twolevel": sm.PolicyTwoLevel,
	}
	for in, want := range ok {
		got, err := sim.ParseWarpPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseWarpPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := sim.ParseWarpPolicy("nope"); err == nil {
		t.Error("ParseWarpPolicy accepted junk")
	}
}

func TestParseScale(t *testing.T) {
	ok := map[string]workloads.Scale{
		"tiny": workloads.ScaleTest, "test": workloads.ScaleTest,
		"small": workloads.ScaleSmall, "full": workloads.ScaleFull,
	}
	for in, want := range ok {
		got, err := sim.ParseScale(in)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", in, got, err, want)
		}
		if in != "test" && sim.ScaleName(want) != in {
			t.Errorf("ScaleName(%v) = %q, want %q", want, sim.ScaleName(want), in)
		}
	}
	if _, err := sim.ParseScale("nope"); err == nil {
		t.Error("ParseScale accepted junk")
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
			Sched: sim.Preemptive(1, 120000), Scale: workloads.ScaleSmall, Cores: 4,
		},
		// All-zero arrivals are the zero value: same key, same wire form.
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
		`{"workloads":["vadd"],"cores":-1}`,
		`{"workloads":"vadd"}`,
	} {
		var r sim.Request
		if err := json.Unmarshal([]byte(bad), &r); err == nil {
			t.Errorf("unmarshal accepted %s", bad)
		}
	}
}

// TestRequestJSONPreemptiveConvenience covers the priority_kernel /
// deadline_cycles spelling: it folds into the preemptive sched spec, and is
// rejected for any other scheduler.
func TestRequestJSONPreemptiveConvenience(t *testing.T) {
	var r sim.Request
	in := `{"workloads":["spmv","dct8x8"],"sched":"preemptive","priority_kernel":1,"deadline_cycles":90000,"arrivals":[0,40000]}`
	if err := json.Unmarshal([]byte(in), &r); err != nil {
		t.Fatal(err)
	}
	if want := sim.Preemptive(1, 90000); r.Sched.String() != want.String() {
		t.Errorf("folded sched = %q, want %q", r.Sched.String(), want.String())
	}
	if len(r.Arrivals) != 2 || r.Arrivals[1] != 40000 {
		t.Errorf("arrivals = %v", r.Arrivals)
	}
	if err := r.Validate(); err != nil {
		t.Errorf("valid preemptive request rejected: %v", err)
	}
	for _, bad := range []string{
		`{"workloads":["vadd"],"priority_kernel":1}`,                       // needs preemptive sched
		`{"workloads":["vadd"],"sched":"lcs","deadline_cycles":5}`,         // wrong scheduler
		`{"workloads":["vadd"],"sched":"preemptive","priority_kernel":0}`,  // kernel 0 is already first
		`{"workloads":["vadd"],"sched":"preemptive","deadline_cycles":-1}`, // negative deadline
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
	// Negative size overrides fail Validate on the Go path too, matching the
	// wire rule: config ignores them, so they would simulate the default
	// machine under a cores=-1 or l1=-1 key of their own.
	for _, bad := range []sim.Request{
		{Workloads: []string{"vadd"}, Cores: -1},
		{Workloads: []string{"vadd"}, L1Bytes: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
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

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gpusched/internal/gpu"
	"gpusched/internal/sim"
	"gpusched/internal/sm"
	"gpusched/internal/workloads"
)

// newTestServer builds a Server over a fresh sim.Service and serves it via
// httptest. A non-nil stub replaces the simulation function before any
// request can reach it, so tests can hold a request in flight.
func newTestServer(t *testing.T, opt sim.Options, stub func(context.Context, sim.Request) (sim.Outcome, error)) (*Server, *httptest.Server) {
	t.Helper()
	s := New(sim.NewService(opt), Config{})
	if stub != nil {
		s.runSim = stub
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// gatedStub returns a simulation stand-in that reports each start on
// started, blocks until release closes (or the request's context ends),
// and reports the context's error on ended when it gives up. Both
// channels are buffered well past any test's request count, so the stub
// never blocks on a test that stopped listening.
func gatedStub() (stub func(context.Context, sim.Request) (sim.Outcome, error), started chan string, release chan struct{}, ended chan error) {
	started = make(chan string, 64)
	release = make(chan struct{})
	ended = make(chan error, 64)
	stub = func(ctx context.Context, req sim.Request) (sim.Outcome, error) {
		started <- req.Key()
		select {
		case <-release:
			return sim.Outcome{Result: gpu.Result{Cycles: 42}}, nil
		case <-ctx.Done():
			ended <- ctx.Err()
			return sim.Outcome{}, ctx.Err()
		}
	}
	return stub, started, release, ended
}

func doJSON(t *testing.T, method, url, body string) (int, []byte, http.Header) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

// simulateJSON mirrors the /v1/simulate response for decoding.
type simulateJSON struct {
	Key     string `json:"key"`
	Outcome struct {
		Result struct {
			Cycles uint64 `json:"Cycles"`
		} `json:"Result"`
	} `json:"outcome"`
}

// simulate POSTs body to /v1/simulate and expects a 200.
func simulate(t *testing.T, base, body string) simulateJSON {
	t.Helper()
	code, data, _ := doJSON(t, http.MethodPost, base+"/v1/simulate", body)
	if code != http.StatusOK {
		t.Fatalf("/v1/simulate = %d: %s", code, data)
	}
	var resp simulateJSON
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	return resp
}

const tinyBody = `{"workloads":["vadd"],"scale":"tiny","cores":4}`

// tinyReq is the cheapest real simulation; seq varies the cache key.
func tinyReq(seq int) sim.Request {
	return sim.Request{
		Workloads: []string{"vadd"},
		Sched:     sim.LCS(),
		Warp:      sm.PolicyGTO,
		Scale:     workloads.ScaleTest,
		Cores:     4,
		MaxCycles: 20_000_000 + uint64(seq),
	}
}

func mustItem(t *testing.T, r sim.Request) string {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestSyncSimulate(t *testing.T) {
	_, ts := newTestServer(t, sim.Options{}, nil)
	resp := simulate(t, ts.URL, tinyBody)
	if resp.Outcome.Result.Cycles == 0 || !strings.Contains(resp.Key, "vadd") {
		t.Fatalf("sync outcome %+v", resp)
	}
	// The reply attests the key's content address and the cache version;
	// an error attests nothing.
	_, _, h := doJSON(t, http.MethodPost, ts.URL+"/v1/simulate", tinyBody)
	if h.Get("X-Sim-Cache-Addr") != sim.CacheAddr(resp.Key) || h.Get("X-Sim-Cache-Version") != strconv.Itoa(sim.CacheVersion) {
		t.Errorf("attestation headers addr=%q version=%q, want %q and %d",
			h.Get("X-Sim-Cache-Addr"), h.Get("X-Sim-Cache-Version"), sim.CacheAddr(resp.Key), sim.CacheVersion)
	}
	_, _, h = doJSON(t, http.MethodPost, ts.URL+"/v1/simulate", `{"workloads":["nope"]}`)
	if h.Get("X-Sim-Cache-Addr") != "" || h.Get("X-Sim-Cache-Version") != "" {
		t.Errorf("an error reply carries attestation headers: %v", h)
	}
}

// TestPreemptiveJobEndToEnd runs a deadline request: the sched spec
// carries the deadline into the cache key, the late arrival sets up the
// contention, and the simulation runs to completion.
func TestPreemptiveJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, sim.Options{}, nil)
	resp := simulate(t, ts.URL, `{"workloads":["spmv","vadd"],"arrivals":[0,500],"scale":"tiny","cores":4,`+
		`"sched":"preemptive:200000"}`)
	if !strings.Contains(resp.Key, "sched=preemptive:200000|") {
		t.Fatalf("key %q does not carry the preemptive spec", resp.Key)
	}
	if !strings.Contains(resp.Key, "arr=0+500") {
		t.Fatalf("key %q does not carry the arrivals", resp.Key)
	}
	if resp.Outcome.Result.Cycles == 0 {
		t.Fatalf("no outcome: %+v", resp)
	}

	// The retired priority_kernel/deadline_cycles spelling is a validation
	// error that names the one spelling, not a silent drop.
	code, data, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/simulate",
		`{"workloads":["spmv","vadd"],"scale":"tiny","cores":4,"sched":"preemptive","deadline_cycles":200000}`)
	if code != http.StatusBadRequest || !strings.Contains(string(data), `preemptive:D`) {
		t.Fatalf("retired deadline_cycles = %d: %s", code, data)
	}
}

// TestErrorShapes pins the structured error envelope: validation failures
// are 400 with code "validation", simulation failures are 500 with code
// "simulation".
func TestErrorShapes(t *testing.T) {
	_, ts := newTestServer(t, sim.Options{}, nil)
	_, failing := newTestServer(t, sim.Options{}, func(context.Context, sim.Request) (sim.Outcome, error) {
		return sim.Outcome{}, errors.New("simulation failed")
	})
	cases := []struct {
		url    string
		body   string
		status int
		code   string
	}{
		{ts.URL, `{"workloads":["no-such"]}`, http.StatusBadRequest, "validation"},
		{ts.URL, `{"workloads":[]}`, http.StatusBadRequest, "validation"},
		{ts.URL, `not json`, http.StatusBadRequest, "validation"},
		{ts.URL, `{"workloads":["vadd"],"sched":"nope"}`, http.StatusBadRequest, "validation"},
		{ts.URL, `{"workloads":["vadd"],"timeout_ms":-1}`, http.StatusBadRequest, "validation"},
		// The retired priority/deadline spelling is refused, not run
		// without its deadline.
		{ts.URL, `{"workloads":["spmv","vadd"],"sched":"preemptive","priority_kernel":1}`, http.StatusBadRequest, "validation"},
		// A machine that cannot be built is refused before it takes a
		// worker: too many cores, and an L1 of 5 sets.
		{ts.URL, `{"workloads":["vadd"],"scale":"tiny","cores":100000}`, http.StatusBadRequest, "validation"},
		{ts.URL, `{"workloads":["vadd"],"scale":"tiny","l1_bytes":3000}`, http.StatusBadRequest, "validation"},
		// A third workload under a policy that places two, and the
		// retired second argument and alias spellings.
		{ts.URL, `{"workloads":["vadd","kmeans","spmv"],"sched":"mixed:2","scale":"tiny","cores":4}`, http.StatusBadRequest, "validation"},
		{ts.URL, `{"workloads":["vadd","kmeans","spmv"],"sched":"spatial","scale":"tiny","cores":4}`, http.StatusBadRequest, "validation"},
		{ts.URL, `{"workloads":["vadd","kmeans"],"sched":"spatial:8"}`, http.StatusBadRequest, "validation"},
		{ts.URL, `{"workloads":["spmv","vadd"],"sched":"preemptive:1:200000"}`, http.StatusBadRequest, "validation"},
		{ts.URL, `{"workloads":["vadd"],"scale":"test"}`, http.StatusBadRequest, "validation"},
		{failing.URL, tinyBody, http.StatusInternalServerError, "simulation"},
	}
	for _, c := range cases {
		code, data, _ := doJSON(t, http.MethodPost, c.url+"/v1/simulate", c.body)
		if code != c.status {
			t.Errorf("%s = %d, want %d (%s)", c.body, code, c.status, data)
			continue
		}
		var env struct {
			Error apiError `json:"error"`
		}
		if err := json.Unmarshal(data, &env); err != nil || env.Error.Code != c.code {
			t.Errorf("%s error envelope = %s, want code %q", c.body, data, c.code)
		}
	}
}

// TestCancelRunningAndQueued: a client that disconnects mid-request
// cancels the in-flight simulation's context.
func TestCancelRunningAndQueued(t *testing.T) {
	stub, started, release, ended := gatedStub()
	defer close(release)
	_, ts := newTestServer(t, sim.Options{}, stub)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate", strings.NewReader(tinyBody))
	if err != nil {
		t.Fatal(err)
	}
	clientErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		clientErr <- err
	}()
	<-started
	cancel()
	if err := <-clientErr; err == nil {
		t.Error("canceled client request returned a response")
	}
	select {
	case err := <-ended:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("simulation context ended with %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client disconnect never canceled the simulation")
	}
}

// TestPerJobDeadline: a request whose timeout_ms elapses fails with 504
// "deadline" rather than running forever.
func TestPerJobDeadline(t *testing.T) {
	stub, _, release, _ := gatedStub()
	defer close(release)
	_, ts := newTestServer(t, sim.Options{}, stub)
	code, data, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/simulate",
		`{"workloads":["vadd"],"scale":"tiny","cores":4,"timeout_ms":50}`)
	if code != http.StatusGatewayTimeout || !strings.Contains(string(data), `"deadline"`) {
		t.Fatalf("deadlined request = %d: %s, want 504 with code deadline", code, data)
	}
}

// TestGracefulShutdownDrains: Shutdown flips readiness to 503 at once,
// and a simulation already in flight still completes.
func TestGracefulShutdownDrains(t *testing.T) {
	stub, started, release, _ := gatedStub()
	s, ts := newTestServer(t, sim.Options{}, stub)

	type reply struct {
		code int
		data []byte
	}
	inflight := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(tinyBody))
		if err != nil {
			inflight <- reply{data: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		inflight <- reply{resp.StatusCode, data}
	}()
	<-started

	if code, data, _ := doJSON(t, http.MethodGet, ts.URL+"/readyz", ""); code != http.StatusOK {
		t.Fatalf("readyz before Shutdown = %d: %s", code, data)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if code, data, _ := doJSON(t, http.MethodGet, ts.URL+"/readyz", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after Shutdown = %d: %s, want 503", code, data)
	}
	if _, data, _ := doJSON(t, http.MethodGet, ts.URL+"/metrics", ""); !strings.Contains(string(data), "gpuschedd_ready 0") {
		t.Errorf("/metrics does not report draining:\n%s", data)
	}

	close(release)
	if r := <-inflight; r.code != http.StatusOK || !strings.Contains(string(r.data), `"Cycles":42`) {
		t.Fatalf("in-flight simulate after Shutdown = %d: %s", r.code, r.data)
	}
}

// TestConcurrentSubmissionsDeduplicate is the -race end-to-end check: N
// concurrent HTTP simulations of one request simulate exactly once, and
// the memo hits show up in /metrics.
func TestConcurrentSubmissionsDeduplicate(t *testing.T) {
	s, ts := newTestServer(t, sim.Options{}, nil)
	const n = 8
	cycles := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(tinyBody))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var out simulateJSON
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("simulate %d = %d (%v)", i, resp.StatusCode, err)
				return
			}
			cycles[i] = out.Outcome.Result.Cycles
		}(i)
	}
	wg.Wait()
	for i, c := range cycles {
		if c == 0 || c != cycles[0] {
			t.Errorf("simulate %d saw %d cycles, the first saw %d", i, c, cycles[0])
		}
	}
	if st := s.svc.Stats(); st.Simulated != 1 || st.MemoHits != n-1 {
		t.Fatalf("sim stats = %+v, want 1 simulated, %d memo hits", st, n-1)
	}
	_, data, _ := doJSON(t, http.MethodGet, ts.URL+"/metrics", "")
	for _, want := range []string{
		"gpuschedd_sim_simulated_total 1",
		fmt.Sprintf("gpuschedd_sim_memo_hits_total %d", n-1),
		fmt.Sprintf("gpuschedd_sim_reused_total %d", s.svc.Stats().Reused),
		"gpuschedd_ready 1",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestCacheEndpoint: /v1/cache/{addr} serves the raw content-addressed
// entry after a simulation, 404s on unknown or malformed addresses, and
// the key round-trips through DecodeCacheEntry.
func TestCacheEndpoint(t *testing.T) {
	_, ts := newTestServer(t, sim.Options{CacheDir: t.TempDir()}, nil)

	req := tinyReq(0)
	simulate(t, ts.URL, mustItem(t, req))
	addr := sim.CacheAddr(req.Key())
	code, data, hdr := doJSON(t, http.MethodGet, ts.URL+"/v1/cache/"+addr, "")
	if code != http.StatusOK {
		t.Fatalf("cache get: %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if _, ok := sim.DecodeCacheEntry(data, req.Key()); !ok {
		t.Error("served entry fails verification against its key")
	}
	for _, bad := range []string{strings.Repeat("0", 64), "shortaddr", "../escape"} {
		code, _, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/cache/"+bad, "")
		if code != http.StatusNotFound {
			t.Errorf("GET /v1/cache/%s = %d, want 404", bad, code)
		}
	}
}

// TestStatsEndpoint: /v1/stats reports readiness and the sim cache/dedup
// counters the router aggregates.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, sim.Options{}, nil)
	for i := 0; i < 2; i++ { // same key twice: 1 simulated + 1 memo hit
		simulate(t, ts.URL, mustItem(t, tinyReq(0)))
	}
	code, data, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var view StatsView
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatalf("decoding stats: %v (%s)", err, data)
	}
	if !view.Ready {
		t.Error("fresh server stats: not ready")
	}
	if view.Sim.Simulated != 1 || view.Sim.MemoHits != 1 {
		t.Errorf("sim counters = %+v, want 1 simulated + 1 memo hit", view.Sim)
	}
}

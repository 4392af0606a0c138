package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gpusched/internal/gpu"
	"gpusched/internal/sim"
)

// newTestServer builds a Server over a fresh sim.Service and serves it via
// httptest. A non-nil stub replaces the simulation function before any job
// can reference it, so tests can hold jobs in chosen states.
func newTestServer(t *testing.T, cfg Config, stub func(context.Context, sim.Request) (sim.Outcome, error)) (*Server, *httptest.Server) {
	t.Helper()
	s := New(sim.NewService(sim.Options{}), cfg)
	if stub != nil {
		s.jobs.runSim = stub
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	})
	return s, ts
}

// gatedStub returns a simulation stand-in that reports each start on
// started and blocks until release closes (or the job's context ends).
func gatedStub() (stub func(context.Context, sim.Request) (sim.Outcome, error), started chan string, release chan struct{}) {
	started = make(chan string, 64)
	release = make(chan struct{})
	stub = func(ctx context.Context, req sim.Request) (sim.Outcome, error) {
		started <- req.Key()
		select {
		case <-release:
			return sim.Outcome{Result: gpu.Result{Cycles: 42}}, nil
		case <-ctx.Done():
			return sim.Outcome{}, ctx.Err()
		}
	}
	return stub, started, release
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

// jobJSON mirrors jobView for decoding responses.
type jobJSON struct {
	ID      string `json:"id"`
	Key     string `json:"key"`
	State   State  `json:"state"`
	Error   string `json:"error"`
	Outcome *struct {
		Result struct {
			Cycles uint64 `json:"Cycles"`
		} `json:"Result"`
	} `json:"outcome"`
}

func submitJob(t *testing.T, base, body string) jobJSON {
	t.Helper()
	code, data, hdr := doJSON(t, http.MethodPost, base+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, data)
	}
	var j jobJSON
	if err := json.Unmarshal(data, &j); err != nil {
		t.Fatalf("decoding submit response %s: %v", data, err)
	}
	if want := "/v1/jobs/" + j.ID; hdr.Get("Location") != want {
		t.Errorf("Location = %q, want %q", hdr.Get("Location"), want)
	}
	return j
}

// pollJob GETs the job until it reaches a terminal state or the deadline.
func pollJob(t *testing.T, base, id string) jobJSON {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, data, _ := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("status %s = %d: %s", id, code, data)
		}
		var j jobJSON
		if err := json.Unmarshal(data, &j); err != nil {
			t.Fatal(err)
		}
		if j.State.Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, j.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const tinyBody = `{"workloads":["vadd"],"scale":"tiny","cores":4}`

// TestJobLifecycleEndToEnd drives a real simulation through the async API:
// submit, poll to done, read the outcome, and see it in /metrics.
func TestJobLifecycleEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	j := submitJob(t, ts.URL, tinyBody)
	if j.State != StateQueued && j.State != StateRunning && j.State != StateDone {
		t.Fatalf("fresh job state = %q", j.State)
	}
	got := pollJob(t, ts.URL, j.ID)
	if got.State != StateDone {
		t.Fatalf("job finished %q (%s), want done", got.State, got.Error)
	}
	if got.Outcome == nil || got.Outcome.Result.Cycles == 0 {
		t.Fatalf("done job has no outcome: %+v", got)
	}
	code, data, _ := doJSON(t, http.MethodGet, ts.URL+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"gpuschedd_sim_simulated_total 1",
		`gpuschedd_jobs_finished_total{state="done"} 1`,
		"gpuschedd_job_cycles_count 1",
		"gpuschedd_queue_capacity 64",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The job list includes it.
	code, data, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", "")
	if code != http.StatusOK || !strings.Contains(string(data), j.ID) {
		t.Errorf("/v1/jobs = %d, missing %s: %s", code, j.ID, data)
	}
}

// TestDefaultRunnersFollowGOMAXPROCS: the runner pool is sized from what the
// process may use, not from the machine, so a GOMAXPROCS (or container CPU)
// limit below NumCPU does not oversubscribe.
func TestDefaultRunnersFollowGOMAXPROCS(t *testing.T) {
	if runtime.NumCPU() == 1 {
		t.Skip("needs NumCPU > 1 to set GOMAXPROCS below it")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() - 1))
	s, _ := newTestServer(t, Config{}, nil)
	if got, want := s.jobs.cfg.Workers, runtime.NumCPU()-1; got != want {
		t.Errorf("default runner goroutines = %d at GOMAXPROCS=%d (NumCPU=%d), want %d",
			got, want, runtime.NumCPU(), want)
	}
}

func TestSyncSimulate(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	code, data, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/simulate", tinyBody)
	if code != http.StatusOK {
		t.Fatalf("/v1/simulate = %d: %s", code, data)
	}
	var resp struct {
		Key     string `json:"key"`
		Outcome struct {
			Result struct {
				Cycles uint64 `json:"Cycles"`
			} `json:"Result"`
		} `json:"outcome"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Outcome.Result.Cycles == 0 || !strings.Contains(resp.Key, "vadd") {
		t.Fatalf("sync outcome %s", data)
	}
}

// TestPreemptiveJobEndToEnd submits a priority/deadline job through the
// async API: the convenience fields fold into the preemptive sched spec (and
// its cache key), the late arrival sets up the contention, and the job runs
// to completion.
func TestPreemptiveJobEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	body := `{"workloads":["spmv","vadd"],"arrivals":[0,500],"scale":"tiny","cores":4,` +
		`"sched":"preemptive","priority_kernel":1,"deadline_cycles":200000}`
	j := submitJob(t, ts.URL, body)
	if !strings.Contains(j.Key, "preemptive:1:200000") {
		t.Fatalf("job key %q does not carry the preemptive spec", j.Key)
	}
	if !strings.Contains(j.Key, "arr=0+500") {
		t.Fatalf("job key %q does not carry the arrivals", j.Key)
	}
	got := pollJob(t, ts.URL, j.ID)
	if got.State != StateDone {
		t.Fatalf("job finished %q (%s), want done", got.State, got.Error)
	}
	if got.Outcome == nil || got.Outcome.Result.Cycles == 0 {
		t.Fatalf("done job has no outcome: %+v", got)
	}

	// The convenience fields without the preemptive scheduler are a
	// validation error, not a silent drop.
	code, data, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		`{"workloads":["vadd"],"scale":"tiny","cores":4,"priority_kernel":1}`)
	if code != http.StatusBadRequest {
		t.Fatalf("priority_kernel without preemptive sched = %d: %s", code, data)
	}
}

// TestErrorShapes pins the structured error envelope: validation failures
// are 400 with code "validation", unknown jobs are 404, simulation
// failures on the sync path are 500 with code "simulation".
func TestErrorShapes(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	cases := []struct {
		method, path, body string
		status             int
		code               string
	}{
		{http.MethodPost, "/v1/jobs", `{"workloads":["no-such"]}`, http.StatusBadRequest, "validation"},
		{http.MethodPost, "/v1/jobs", `{"workloads":[]}`, http.StatusBadRequest, "validation"},
		{http.MethodPost, "/v1/jobs", `not json`, http.StatusBadRequest, "validation"},
		{http.MethodPost, "/v1/jobs", `{"workloads":["vadd"],"sched":"nope"}`, http.StatusBadRequest, "validation"},
		{http.MethodPost, "/v1/jobs", `{"workloads":["vadd"],"timeout_ms":-1}`, http.StatusBadRequest, "validation"},
		{http.MethodGet, "/v1/jobs/job-999", "", http.StatusNotFound, "not_found"},
		{http.MethodDelete, "/v1/jobs/job-999", "", http.StatusNotFound, "not_found"},
		{http.MethodGet, "/v1/jobs/job-999/events", "", http.StatusNotFound, "not_found"},
		// An impossible machine is a simulation failure, not a validation one.
		{http.MethodPost, "/v1/simulate", `{"workloads":["vadd"],"scale":"tiny","cores":100000}`, http.StatusInternalServerError, "simulation"},
	}
	for _, c := range cases {
		code, data, _ := doJSON(t, c.method, ts.URL+c.path, c.body)
		if code != c.status {
			t.Errorf("%s %s = %d, want %d (%s)", c.method, c.path, code, c.status, data)
			continue
		}
		var env struct {
			Error apiError `json:"error"`
		}
		if err := json.Unmarshal(data, &env); err != nil || env.Error.Code != c.code {
			t.Errorf("%s %s error envelope = %s, want code %q", c.method, c.path, data, c.code)
		}
	}
}

// TestQueueFullBackpressure fills the 1-deep queue behind a blocked worker
// and expects 429 + Retry-After, with the rejection counted in /metrics.
func TestQueueFullBackpressure(t *testing.T) {
	stub, started, release := gatedStub()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1}, stub)

	a := submitJob(t, ts.URL, tinyBody)
	<-started // the worker holds job a now; the queue is empty again
	b := submitJob(t, ts.URL, `{"workloads":["spmv"],"scale":"tiny","cores":4}`)

	code, data, hdr := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", `{"workloads":["stencil"],"scale":"tiny","cores":4}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d: %s", code, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if !strings.Contains(string(data), "queue_full") {
		t.Errorf("429 body %s missing code queue_full", data)
	}

	close(release)
	for _, id := range []string{a.ID, b.ID} {
		if got := pollJob(t, ts.URL, id); got.State != StateDone {
			t.Errorf("job %s = %q after release", id, got.State)
		}
	}
	_, data, _ = doJSON(t, http.MethodGet, ts.URL+"/metrics", "")
	if !strings.Contains(string(data), "gpuschedd_jobs_rejected_total 1") {
		t.Errorf("/metrics missing rejected counter:\n%s", data)
	}
}

// TestCancelRunningAndQueued cancels a running job (via its context) and a
// queued one (before any worker sees it).
func TestCancelRunningAndQueued(t *testing.T) {
	stub, started, release := gatedStub()
	defer close(release)
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4}, stub)

	running := submitJob(t, ts.URL, tinyBody)
	<-started
	queued := submitJob(t, ts.URL, `{"workloads":["spmv"],"scale":"tiny","cores":4}`)

	// Cancel the queued job first: it must never start.
	code, data, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, "")
	if code != http.StatusOK {
		t.Fatalf("cancel queued = %d: %s", code, data)
	}
	if got := pollJob(t, ts.URL, queued.ID); got.State != StateCanceled {
		t.Errorf("queued job after cancel = %q", got.State)
	}

	code, data, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, "")
	if code != http.StatusOK {
		t.Fatalf("cancel running = %d: %s", code, data)
	}
	if got := pollJob(t, ts.URL, running.ID); got.State != StateCanceled {
		t.Errorf("running job after cancel = %q (%s)", got.State, got.Error)
	}
	select {
	case <-started:
		t.Error("canceled queued job reached a worker")
	default:
	}
}

// TestPerJobDeadline: a job whose timeout_ms elapses fails with a deadline
// error rather than running forever.
func TestPerJobDeadline(t *testing.T) {
	stub, _, release := gatedStub()
	defer close(release)
	_, ts := newTestServer(t, Config{Workers: 1}, stub)
	j := submitJob(t, ts.URL, `{"workloads":["vadd"],"scale":"tiny","cores":4,"timeout_ms":50}`)
	got := pollJob(t, ts.URL, j.ID)
	if got.State != StateFailed || !strings.Contains(got.Error, "deadline") {
		t.Fatalf("deadlined job = %q (%s), want failed with deadline error", got.State, got.Error)
	}
}

// readSSEEvent reads one "event:/id:/data:" block from an SSE stream.
func readSSEEvent(t *testing.T, r *bufio.Reader) (name string, ev Event, eof bool) {
	t.Helper()
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return "", Event{}, true
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		case line == "" && name != "":
			return name, ev, false
		}
	}
}

// TestSSEEventOrdering subscribes while the job is running and must see
// queued, running, done in order with consecutive sequence numbers, then
// a clean end of stream.
func TestSSEEventOrdering(t *testing.T) {
	stub, started, release := gatedStub()
	_, ts := newTestServer(t, Config{Workers: 1}, stub)
	j := submitJob(t, ts.URL, tinyBody)
	<-started

	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	r := bufio.NewReader(resp.Body)

	want := []State{StateQueued, StateRunning}
	for i, w := range want {
		name, ev, eof := readSSEEvent(t, r)
		if eof {
			t.Fatalf("stream ended before %q", w)
		}
		if State(name) != w || ev.State != w || ev.Seq != i+1 {
			t.Fatalf("event %d = %s/%+v, want %q seq %d", i, name, ev, w, i+1)
		}
	}
	close(release)
	name, ev, eof := readSSEEvent(t, r)
	if eof || State(name) != StateDone || ev.Seq != 3 || ev.Cycles != 42 {
		t.Fatalf("terminal event = %s/%+v (eof=%t), want done seq 3 cycles 42", name, ev, eof)
	}
	if _, _, eof := readSSEEvent(t, r); !eof {
		t.Error("stream did not close after the terminal event")
	}

	// A late subscriber to a finished job replays history and closes.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var seen []string
	r2 := bufio.NewReader(resp2.Body)
	for {
		name, _, eof := readSSEEvent(t, r2)
		if eof {
			break
		}
		seen = append(seen, name)
	}
	if got := strings.Join(seen, ","); got != "queued,running,done" {
		t.Errorf("replayed events = %q", got)
	}
}

// TestGracefulShutdownDrains: Shutdown must flip readiness to draining
// (while liveness stays 200 so routers keep status queries flowing),
// refuse new jobs with 503, and wait for in-flight jobs to finish.
func TestGracefulShutdownDrains(t *testing.T) {
	stub, started, release := gatedStub()
	s, ts := newTestServer(t, Config{Workers: 1}, stub)
	j := submitJob(t, ts.URL, tinyBody)
	<-started

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Draining is visible on readiness before the drain completes, while
	// liveness stays 200 (draining shards still answer status queries).
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _, _ := doJSON(t, http.MethodGet, ts.URL+"/readyz", "")
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, data, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz during drain = %d (%s), want 200: liveness must not flip", code, data)
	}
	code, data, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", tinyBody)
	if code != http.StatusServiceUnavailable || !strings.Contains(string(data), "shutting_down") {
		t.Fatalf("submit during drain = %d: %s", code, data)
	}

	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
	if got := pollJob(t, ts.URL, j.ID); got.State != StateDone {
		t.Errorf("drained job = %q, want done", got.State)
	}
}

// TestShutdownDeadlineCancelsJobs: when the drain context expires, live
// jobs are canceled instead of blocking exit forever.
func TestShutdownDeadlineCancelsJobs(t *testing.T) {
	stub, started, release := gatedStub()
	defer close(release)
	s, ts := newTestServer(t, Config{Workers: 1}, stub)
	j := submitJob(t, ts.URL, tinyBody)
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	if got := pollJob(t, ts.URL, j.ID); got.State != StateCanceled {
		t.Errorf("job after forced shutdown = %q", got.State)
	}
}

// TestConcurrentSubmissionsDeduplicate is the -race end-to-end check: N
// concurrent HTTP submissions of one request simulate exactly once, and
// the memo hits show up in /metrics.
func TestConcurrentSubmissionsDeduplicate(t *testing.T) {
	s, ts := newTestServer(t, Config{}, nil)
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(tinyBody)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d = %d: %s", i, resp.StatusCode, data)
				return
			}
			var j jobJSON
			if err := json.Unmarshal(data, &j); err != nil {
				t.Error(err)
				return
			}
			ids[i] = j.ID
		}(i)
	}
	wg.Wait()
	var cycles uint64
	for _, id := range ids {
		if id == "" {
			t.Fatal("missing job id")
		}
		got := pollJob(t, ts.URL, id)
		if got.State != StateDone {
			t.Fatalf("job %s = %q (%s)", id, got.State, got.Error)
		}
		if cycles == 0 {
			cycles = got.Outcome.Result.Cycles
		} else if got.Outcome.Result.Cycles != cycles {
			t.Errorf("job %s saw %d cycles, others saw %d", id, got.Outcome.Result.Cycles, cycles)
		}
	}
	if st := s.svc.Stats(); st.Simulated != 1 || st.MemoHits != n-1 {
		t.Fatalf("sim stats = %+v, want 1 simulated, %d memo hits", st, n-1)
	}
	_, data, _ := doJSON(t, http.MethodGet, ts.URL+"/metrics", "")
	for _, want := range []string{
		"gpuschedd_sim_simulated_total 1",
		fmt.Sprintf("gpuschedd_sim_memo_hits_total %d", n-1),
		fmt.Sprintf(`gpuschedd_jobs_finished_total{state="done"} %d`, n),
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestResultTTLReap: finished jobs expire from the table after the TTL
// and then 404, keeping a long-lived daemon bounded.
func TestResultTTLReap(t *testing.T) {
	s, ts := newTestServer(t, Config{ResultTTL: time.Minute}, nil)
	j := submitJob(t, ts.URL, tinyBody)
	pollJob(t, ts.URL, j.ID)
	if n := s.jobs.reap(time.Now()); n != 0 {
		t.Fatalf("fresh job reaped (%d)", n)
	}
	if n := s.jobs.reap(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("reap after TTL = %d, want 1", n)
	}
	code, _, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID, "")
	if code != http.StatusNotFound {
		t.Fatalf("expired job GET = %d, want 404", code)
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{}, nil)
	code, data, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/workloads", "")
	if code != http.StatusOK {
		t.Fatalf("/v1/workloads = %d", code)
	}
	for _, want := range []string{`"vadd"`, `"spmv"`, `"class"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("/v1/workloads missing %s", want)
		}
	}
}

// TestHistogramRendering pins the Prometheus text rendering: cumulative
// buckets, +Inf, sum and count.
func TestHistogramRendering(t *testing.T) {
	h := newHistogram([]float64{10, 100})
	for _, v := range []float64{5, 50, 500, 7} {
		h.observe(v)
	}
	var buf bytes.Buffer
	h.write(&buf, "x", "test histogram")
	got := buf.String()
	for _, want := range []string{
		`x_bucket{le="10"} 2`,
		`x_bucket{le="100"} 3`,
		`x_bucket{le="+Inf"} 4`,
		"x_sum 562",
		"x_count 4",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("histogram output missing %q:\n%s", want, got)
		}
	}
}

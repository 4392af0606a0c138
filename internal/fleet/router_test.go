package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpusched/internal/server"
	"gpusched/internal/sim"
	"gpusched/internal/sm"
	"gpusched/internal/workloads"
)

// tinyRequest is the cheapest real simulation in the suite; varying seq
// varies the cache key (MaxCycles is part of the identity) without
// changing the work.
func tinyRequest(seq int) sim.Request {
	return sim.Request{
		Workloads: []string{"vadd"},
		Sched:     sim.LCS(),
		Warp:      sm.PolicyGTO,
		Scale:     workloads.ScaleTest,
		Cores:     4,
		MaxCycles: 20_000_000 + uint64(seq),
	}
}

// testFleet is two real gpuschedd shards behind a router, all over
// httptest — the full serving path minus TCP listeners for the router.
type testFleet struct {
	router  *Router
	front   *httptest.Server
	shards  []*httptest.Server
	service []*sim.Service
}

func newTestFleet(t *testing.T, n int, cfg Config, optFor func(i int) sim.Options) *testFleet {
	t.Helper()
	f := &testFleet{}
	members := make([]*Shard, n)
	for i := 0; i < n; i++ {
		opt := sim.Options{CacheDir: t.TempDir()}
		if optFor != nil {
			opt = optFor(i)
		}
		svc := sim.NewService(opt)
		ts := httptest.NewServer(server.New(svc, server.Config{}).Handler())
		t.Cleanup(ts.Close)
		f.service = append(f.service, svc)
		f.shards = append(f.shards, ts)
		members[i] = &Shard{Name: fmt.Sprintf("s%d", i), URL: ts.URL}
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = time.Millisecond
	}
	f.router = NewRouter(members, cfg)
	f.front = httptest.NewServer(f.router.Handler())
	t.Cleanup(f.front.Close)
	return f
}

func (f *testFleet) simulate(t *testing.T, req sim.Request) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(f.front.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	defer resp.Body.Close()
	data := new(bytes.Buffer)
	data.ReadFrom(resp.Body) //nolint:errcheck // test helper
	return resp, data.Bytes()
}

// keyOwnedBy finds a tiny request whose cache key the named shard owns.
func (f *testFleet) keyOwnedBy(t *testing.T, name string) sim.Request {
	t.Helper()
	for seq := 0; seq < 1000; seq++ {
		req := tinyRequest(seq)
		if f.router.Ring().Owner(req.Key()).Name == name {
			return req
		}
	}
	t.Fatalf("no tiny request hashes onto shard %s in 1000 tries", name)
	return sim.Request{}
}

func (f *testFleet) fleetStats(t *testing.T) (dedupRate float64, agg sim.Stats) {
	t.Helper()
	resp, err := http.Get(f.front.URL + "/v1/fleet/stats")
	if err != nil {
		t.Fatalf("fleet stats: %v", err)
	}
	defer resp.Body.Close()
	var payload struct {
		Fleet struct {
			DedupHitRate float64   `json:"dedup_hit_rate"`
			Sim          sim.Stats `json:"sim"`
		} `json:"fleet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("decoding fleet stats: %v", err)
	}
	return payload.Fleet.DedupHitRate, payload.Fleet.Sim
}

// TestFleetWideDedup: duplicate requests arriving at the router on
// separate client connections land on the same shard (key affinity) and
// coalesce there — the fleet simulates each unique request exactly once.
func TestFleetWideDedup(t *testing.T) {
	f := newTestFleet(t, 2, Config{}, nil)
	const unique = 4
	shardFor := map[string]string{}
	for pass := 0; pass < 2; pass++ {
		for seq := 0; seq < unique; seq++ {
			req := tinyRequest(seq)
			resp, body := f.simulate(t, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("simulate pass %d seq %d: %s: %s", pass, seq, resp.Status, body)
			}
			key := resp.Header.Get("X-Fleet-Key")
			if key != req.Key() {
				t.Errorf("X-Fleet-Key = %q, want the canonical key %q", key, req.Key())
			}
			shard := resp.Header.Get("X-Fleet-Shard")
			if prev, ok := shardFor[key]; ok && prev != shard {
				t.Errorf("key %q routed to %s then %s; duplicates must share a shard", key, prev, shard)
			}
			shardFor[key] = shard
			var payload struct {
				Key     string       `json:"key"`
				Outcome *sim.Outcome `json:"outcome"`
			}
			if err := json.Unmarshal(body, &payload); err != nil || payload.Outcome == nil {
				t.Fatalf("bad simulate payload (err=%v): %s", err, body)
			}
			if payload.Key != req.Key() {
				t.Errorf("response echoes key %q, want %q", payload.Key, req.Key())
			}
		}
	}
	rate, agg := f.fleetStats(t)
	if agg.Simulated != unique {
		t.Errorf("fleet simulated %d times, want %d (dedup across connections)", agg.Simulated, unique)
	}
	if hits := agg.MemoHits + agg.DiskHits + agg.PeerHits; hits != unique {
		t.Errorf("fleet cache hits = %d, want %d", hits, unique)
	}
	if rate < 0.49 || rate > 0.51 {
		t.Errorf("dedup_hit_rate = %.3f, want 0.5", rate)
	}
	// Both shards saw traffic: 4 unique keys over 2 shards collide rarely.
	routed := 0
	for _, s := range f.router.Ring().Shards() {
		if s.Routed() > 0 {
			routed++
		}
	}
	if routed == 0 {
		t.Error("no shard recorded routed requests")
	}
}

// TestPeerCacheFetch: a shard wired with PeerCache satisfies a local miss
// from a peer's /v1/cache endpoint instead of resimulating.
func TestPeerCacheFetch(t *testing.T) {
	svcA := sim.NewService(sim.Options{CacheDir: t.TempDir()})
	shardA := httptest.NewServer(server.New(svcA, server.Config{}).Handler())
	defer shardA.Close()

	svcB := sim.NewService(sim.Options{
		CacheDir:  t.TempDir(),
		PeerFetch: NewPeerCache([]string{shardA.URL}, 0).Fetch,
	})
	shardB := httptest.NewServer(server.New(svcB, server.Config{}).Handler())
	defer shardB.Close()

	req := tinyRequest(0)
	body, _ := json.Marshal(req)
	for _, url := range []string{shardA.URL, shardB.URL} {
		resp, err := http.Post(url+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate on %s: %s", url, resp.Status)
		}
		resp.Body.Close()
	}
	if st := svcA.Stats(); st.Simulated != 1 {
		t.Errorf("shard A stats = %+v, want 1 simulation", st)
	}
	if st := svcB.Stats(); st.PeerHits != 1 || st.Simulated != 0 {
		t.Errorf("shard B stats = %+v, want a peer hit and no simulation", st)
	}

	// A missing entry is a miss, not an error: B still simulates work A
	// never ran.
	req2 := tinyRequest(1)
	body2, _ := json.Marshal(req2)
	resp, err := http.Post(shardB.URL+"/v1/simulate", "application/json", bytes.NewReader(body2))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate uncached on B: %s", resp.Status)
	}
	if st := svcB.Stats(); st.Simulated != 1 {
		t.Errorf("shard B should simulate the peer miss; stats = %+v", st)
	}
}

// TestShardDownFailover: killing a shard mid-fleet reroutes its keys to
// the survivor — the client sees a success, the router records the
// failover, and the dead shard is marked down by traffic alone.
func TestShardDownFailover(t *testing.T) {
	f := newTestFleet(t, 2, Config{FailAfter: 1, Retries: 2}, nil)
	req := f.keyOwnedBy(t, "s0")
	f.shards[0].Close()

	resp, body := f.simulate(t, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate after shard death: %s: %s", resp.Status, body)
	}
	if shard := resp.Header.Get("X-Fleet-Shard"); shard != "s1" {
		t.Errorf("served by %q, want the survivor s1", shard)
	}
	if got := f.router.failovers.Load(); got == 0 {
		t.Error("failover counter still 0 after a rerouted request")
	}
	if s0 := f.router.Ring().ShardByName("s0"); s0.Healthy() {
		t.Error("dead shard still marked healthy after a forward failure with FailAfter=1")
	}
	// The router stays ready on one healthy shard.
	rr, err := http.Get(f.front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Errorf("readyz = %s with a healthy survivor, want 200", rr.Status)
	}
	// ...and flips unready when the survivor dies too.
	f.shards[1].Close()
	f.router.Ring().ShardByName("s1").noteFailure("closed", 1)
	rr2, err := http.Get(f.front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr2.Body.Close()
	if rr2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz = %s with zero healthy shards, want 503", rr2.Status)
	}
}

// TestProberMarksDownAndRecovers: the prober demotes a shard whose
// /readyz stops answering and promotes it again on recovery.
func TestProberMarksDownAndRecovers(t *testing.T) {
	var healthy atomic.Bool // written by the test, read by the handler goroutines
	healthy.Store(true)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()

	down := make(chan bool, 16)
	shard := &Shard{Name: "s0", URL: backend.URL}
	ring := NewRing([]*Shard{shard})
	prober := NewProber(ring, 5*time.Millisecond, 0, 1, func(s *Shard, up bool) { down <- up })
	prober.Start()
	defer prober.Stop()

	healthy.Store(false)
	select {
	case up := <-down:
		if up {
			t.Fatal("first transition should be a mark-down")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("prober never marked the failing shard down")
	}
	healthy.Store(true)
	select {
	case up := <-down:
		if !up {
			t.Fatal("expected the recovery transition")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("prober never recovered the shard")
	}
	if !shard.Healthy() {
		t.Error("shard unhealthy after recovery")
	}
}

// TestRouterBatch: a batch with duplicate items fans out by key, streams
// every index back exactly once with its key and outcome, and the
// duplicates coalesce fleet-wide.
func TestRouterBatch(t *testing.T) {
	f := newTestFleet(t, 2, Config{}, nil)
	const unique = 3
	items := make([]json.RawMessage, 0, unique*2)
	for pass := 0; pass < 2; pass++ {
		for seq := 0; seq < unique; seq++ {
			raw, _ := json.Marshal(tinyRequest(seq))
			items = append(items, raw)
		}
	}
	body, _ := json.Marshal(map[string]any{"items": items})
	resp, err := http.Post(f.front.URL+"/v1/jobs:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	seen := map[int]batchLine{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line batchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if _, dup := seen[line.Index]; dup {
			t.Errorf("index %d emitted twice", line.Index)
		}
		seen[line.Index] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(items) {
		t.Fatalf("got %d lines, want %d", len(seen), len(items))
	}
	for i := range items {
		line, ok := seen[i]
		if !ok {
			t.Errorf("index %d missing from the stream", i)
			continue
		}
		if line.Error != nil {
			t.Errorf("index %d failed: %s", i, line.Error.Message)
		}
		if len(line.Outcome) == 0 {
			t.Errorf("index %d has no outcome", i)
		}
		if want := tinyRequest(i % unique).Key(); line.Key != want {
			t.Errorf("index %d key = %q, want %q", i, line.Key, want)
		}
		if line.Shard == "" {
			t.Errorf("index %d has no shard attribution", i)
		}
	}
	_, agg := f.fleetStats(t)
	if agg.Simulated != unique {
		t.Errorf("fleet simulated %d times for %d unique items, want %d", agg.Simulated, unique, unique)
	}
}

// TestJobSubmitAndProxy: async jobs submitted at the router come back
// fleet-scoped ("<shard>/<id>"), and status/list/cache requests resolve
// through the router.
func TestJobSubmitAndProxy(t *testing.T) {
	f := newTestFleet(t, 2, Config{}, nil)
	req := tinyRequest(0)
	body, _ := json.Marshal(req)
	resp, err := http.Post(f.front.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID    string `json:"id"`
		Shard string `json:"shard"`
		Key   string `json:"key"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if created.Shard == "" || !strings.HasPrefix(created.ID, created.Shard+"/") {
		t.Fatalf("job id %q not fleet-scoped to shard %q", created.ID, created.Shard)
	}
	if created.Key != req.Key() {
		t.Errorf("create response echoes key %q, want %q", created.Key, req.Key())
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+created.ID {
		t.Errorf("Location = %q, want %q", loc, "/v1/jobs/"+created.ID)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		sr, err := http.Get(f.front.URL + "/v1/jobs/" + created.ID)
		if err != nil {
			t.Fatal(err)
		}
		var view struct {
			ID      string          `json:"id"`
			State   string          `json:"state"`
			Key     string          `json:"key"`
			Outcome json.RawMessage `json:"outcome"`
		}
		if err := json.NewDecoder(sr.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		sr.Body.Close()
		if sr.StatusCode != http.StatusOK {
			t.Fatalf("status: %s", sr.Status)
		}
		if view.ID != created.ID {
			t.Fatalf("status id %q, want the fleet-scoped %q", view.ID, created.ID)
		}
		if view.State == "done" {
			if view.Key != req.Key() {
				t.Errorf("status echoes key %q, want %q", view.Key, req.Key())
			}
			if len(view.Outcome) == 0 {
				t.Error("done job has no outcome")
			}
			break
		}
		if view.State == "failed" || view.State == "canceled" {
			t.Fatalf("job ended %s", view.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", view.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	lr, err := http.Get(f.front.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(lr.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	found := false
	for _, j := range listing.Jobs {
		if j.ID == created.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("merged listing misses job %s", created.ID)
	}

	// The finished result is content-addressed fleet-wide.
	cr, err := http.Get(f.front.URL + "/v1/cache/" + sim.CacheAddr(req.Key()))
	if err != nil {
		t.Fatal(err)
	}
	data := new(bytes.Buffer)
	data.ReadFrom(cr.Body) //nolint:errcheck // test helper
	cr.Body.Close()
	if cr.StatusCode != http.StatusOK {
		t.Fatalf("fleet cache get: %s", cr.Status)
	}
	if _, ok := sim.DecodeCacheEntry(data.Bytes(), req.Key()); !ok {
		t.Error("fleet cache entry fails verification against the job's key")
	}

	// Bad references 404 with a helpful shape.
	for _, ref := range []string{"nope/job-1", "unscoped-id"} {
		br, err := http.Get(f.front.URL + "/v1/jobs/" + ref)
		if err != nil {
			t.Fatal(err)
		}
		br.Body.Close()
		if br.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/jobs/%s = %s, want 404", ref, br.Status)
		}
	}
}

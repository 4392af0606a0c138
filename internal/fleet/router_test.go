package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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
	// received counts the POST /v1/simulate requests the shards saw.
	received atomic.Int64
}

func newTestFleet(t *testing.T, n int, optFor func(i int) sim.Options) *testFleet {
	t.Helper()
	f := &testFleet{}
	members := make([]*Shard, n)
	for i := 0; i < n; i++ {
		opt := sim.Options{CacheDir: t.TempDir()}
		if optFor != nil {
			opt = optFor(i)
		}
		svc := sim.NewService(opt)
		h := server.New(svc, server.Config{}).Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/simulate" {
				f.received.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		f.service = append(f.service, svc)
		f.shards = append(f.shards, ts)
		members[i] = &Shard{Name: fmt.Sprintf("s%d", i), URL: ts.URL}
	}
	f.router = NewRouter(members, Config{})
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

func (f *testFleet) fleetStats(t *testing.T) (dedupRate float64, agg sim.Stats, cache respCacheStats) {
	t.Helper()
	resp, err := http.Get(f.front.URL + "/v1/fleet/stats")
	if err != nil {
		t.Fatalf("fleet stats: %v", err)
	}
	defer resp.Body.Close()
	var payload struct {
		Fleet struct {
			DedupHitRate float64        `json:"dedup_hit_rate"`
			Sim          sim.Stats      `json:"sim"`
			RouterCache  respCacheStats `json:"router_cache"`
		} `json:"fleet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("decoding fleet stats: %v", err)
	}
	return payload.Fleet.DedupHitRate, payload.Fleet.Sim, payload.Fleet.RouterCache
}

// TestFleetWideDedup: duplicate requests arriving at the router on
// separate client connections land on the same shard (key affinity) and
// coalesce there — the fleet simulates each unique request exactly once.
// The router stores each key's second reply, for a third request to hit.
func TestFleetWideDedup(t *testing.T) {
	f := newTestFleet(t, 2, nil)
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
			if got := resp.Header.Get("X-Fleet-Cache"); got != "miss" {
				t.Errorf("pass %d seq %d: X-Fleet-Cache = %q, want a miss", pass, seq, got)
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
	rate, agg, cache := f.fleetStats(t)
	if agg.Simulated != unique {
		t.Errorf("fleet simulated %d times, want %d (dedup across connections)", agg.Simulated, unique)
	}
	if hits := int(cache.Hits) + agg.MemoHits + agg.DiskHits + agg.PeerHits; hits != unique {
		t.Errorf("fleet cache hits = %d (router %d), want %d", hits, cache.Hits, unique)
	}
	if rate < 0.49 || rate > 0.51 {
		t.Errorf("dedup_hit_rate = %.3f, want 0.5", rate)
	}
	if cache.Entries != unique {
		t.Errorf("router cache holds %d entries, want the %d second replies", cache.Entries, unique)
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

// TestFleetStatsShardDown: with one of two shards stopped, the fleet view
// counts the live shard alone, says so in shards_reporting, and gives no
// dedup rate instead of one over half the fleet.
func TestFleetStatsShardDown(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	for _, name := range []string{"s0", "s1"} {
		req := f.keyOwnedBy(t, name)
		for i := 0; i < 2; i++ { // one simulation and one memo hit per shard
			if resp, body := f.simulate(t, req); resp.StatusCode != http.StatusOK {
				t.Fatalf("simulate on %s: %s: %s", name, resp.Status, body)
			}
		}
	}
	f.shards[1].Close()
	resp, err := http.Get(f.front.URL + "/v1/fleet/stats")
	if err != nil {
		t.Fatalf("fleet stats: %v", err)
	}
	defer resp.Body.Close()
	var payload struct {
		Fleet struct {
			ShardsTotal     int             `json:"shards_total"`
			ShardsReporting int             `json:"shards_reporting"`
			DedupHitRate    json.RawMessage `json:"dedup_hit_rate"`
			Sim             sim.Stats       `json:"sim"`
		} `json:"fleet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("decoding fleet stats: %v", err)
	}
	fv := payload.Fleet
	if fv.ShardsTotal != 2 || fv.ShardsReporting != 1 {
		t.Errorf("shards_total %d, shards_reporting %d; want 2 and 1", fv.ShardsTotal, fv.ShardsReporting)
	}
	if string(fv.DedupHitRate) != "null" {
		t.Errorf("dedup_hit_rate = %s with a shard down, want null", fv.DedupHitRate)
	}
	if want := f.service[0].Stats(); fv.Sim != want || want.Simulated != 1 || want.MemoHits != 1 {
		t.Errorf("fleet sim = %+v, want the live shard's %+v (1 simulated, 1 memo hit)", fv.Sim, want)
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
// failover, and the dead shard is marked down by traffic alone, once
// failAfter forwards to it have failed.
func TestShardDownFailover(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	req := f.keyOwnedBy(t, "s0")
	f.shards[0].Close()

	// Each request fails on s0 and falls over to s1; from the key's second
	// forward on, the router also stores s1's reply in its cache.
	s0 := f.router.Ring().Shards()[0]
	var body []byte
	for i := 1; i <= failAfter; i++ {
		resp, b := f.simulate(t, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate %d after shard death: %s: %s", i, resp.Status, b)
		}
		if shard := resp.Header.Get("X-Fleet-Shard"); shard != "s1" {
			t.Errorf("request %d served by %q, want the survivor s1", i, shard)
		}
		if body != nil && !bytes.Equal(b, body) {
			t.Errorf("request %d: the survivor's replies differ", i)
		}
		body = b
		if got, want := s0.Healthy(), i < failAfter; got != want {
			t.Errorf("after %d failed forwards the dead shard is healthy=%v, want %v", i, got, want)
		}
	}
	if got := f.router.failovers.Load(); got != failAfter {
		t.Errorf("failover counter = %d, want one per failed forward (%d)", got, failAfter)
	}
	// The router's /metrics shows the same.
	mr, err := http.Get(f.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := new(bytes.Buffer)
	metrics.ReadFrom(mr.Body) //nolint:errcheck // test helper
	mr.Body.Close()
	for _, want := range []string{`gpurouter_shard_healthy{shard="s0"} 0`, fmt.Sprintf("gpurouter_failovers_total %d", failAfter), "gpurouter_shards_healthy 1"} {
		if !bytes.Contains(metrics.Bytes(), []byte(want)) {
			t.Errorf("router /metrics missing %q:\n%s", want, metrics)
		}
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
	markDown(t, f.router.Ring().Shards()[1])
	rr2, err := http.Get(f.front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr2.Body.Close()
	if rr2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz = %s with zero healthy shards, want 503", rr2.Status)
	}
	// The router cache still answers the key the survivor produced.
	resp3, body3 := f.simulate(t, req)
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("X-Fleet-Cache") != "hit" {
		t.Fatalf("cached key with every shard down: %s, X-Fleet-Cache %q: %s", resp3.Status, resp3.Header.Get("X-Fleet-Cache"), body3)
	}
	if !bytes.Equal(body3, body) || resp3.Header.Get("X-Fleet-Shard") != "s1" {
		t.Errorf("cached reply from %q differs from the survivor's", resp3.Header.Get("X-Fleet-Shard"))
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
	prober := NewProber(ring, 20*time.Millisecond, func(s *Shard, up bool) { down <- up })
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

// postBody sends a raw simulate body and returns the status and reply.
func postBody(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading reply: %v", err)
	}
	return resp.StatusCode, data
}

// TestRouterRejectsMalformedBodies replays server.TestErrorShapes's
// malformed bodies through the router: it answers with the shard's own
// 400, byte for byte, and forwards nothing. timeout_ms is an envelope
// field only a shard reads, so that body still goes to one shard, whose
// 400 is relayed as is.
func TestRouterRejectsMalformedBodies(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	for _, c := range []struct {
		body      string
		forwarded int64
	}{
		{`{"workloads":["no-such"]}`, 0},
		{`{"workloads":[]}`, 0},
		{`not json`, 0},
		{`{"workloads":["vadd"],"sched":"nope"}`, 0},
		{`{"workloads":["vadd"],"cores":100000}`, 0},
		{`{"workloads":["vadd"],"l1_bytes":3000}`, 0},
		{`{"workloads":["vadd"],"timeout_ms":-1}`, 1},
	} {
		shardCode, want := postBody(t, f.shards[0].URL, c.body)
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(want, &env); err != nil || shardCode != http.StatusBadRequest || env.Error.Code != "validation" {
			t.Fatalf("shard answers %s with %d %s, want a 400 validation envelope", c.body, shardCode, want)
		}
		before := f.received.Load()
		code, got := postBody(t, f.front.URL, c.body)
		if code != shardCode || !bytes.Equal(got, want) {
			t.Errorf("router answers %s with %d %s, want the shard's %d %s", c.body, code, got, shardCode, want)
		}
		if n := f.received.Load() - before; n != c.forwarded {
			t.Errorf("%s reached the shards %d times, want %d", c.body, n, c.forwarded)
		}
	}
}

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gpusched/internal/server"
	"gpusched/internal/sim"
)

// stubShard answers POST /v1/simulate with reply(w, key) without
// simulating, and counts the simulate calls and the connections opened to
// it. Any other route is a 404.
type stubShard struct {
	*httptest.Server
	calls, conns atomic.Int64
}

func newStubShard(t *testing.T, reply func(w http.ResponseWriter, key string)) *stubShard {
	t.Helper()
	st := &stubShard{}
	st.Server = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req sim.Request
		if r.Method != http.MethodPost || json.NewDecoder(r.Body).Decode(&req) != nil {
			http.NotFound(w, r)
			return
		}
		st.calls.Add(1)
		reply(w, req.Key())
	}))
	st.Config.ConnState = countNewConns(&st.conns)
	st.Start()
	t.Cleanup(st.Close)
	return st
}

func countNewConns(n *atomic.Int64) func(net.Conn, http.ConnState) {
	return func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			n.Add(1)
		}
	}
}

// replyBody is what the stubs answer: the same length for every key.
func replyBody(key string) []byte { return []byte(`{"key":"` + sim.CacheAddr(key) + `"}`) }

func attestedReply(w http.ResponseWriter, key string) {
	server.Attest(w.Header(), key)
	w.Write(replyBody(key)) //nolint:errcheck // test stub
}

func stubRouter(st *stubShard) *Router {
	return NewRouter([]*Shard{{Name: "s0", URL: st.URL}}, Config{})
}

// post sends one simulate request through the router's handler.
func post(rt *Router, req sim.Request) *httptest.ResponseRecorder {
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
	return rec
}

func get(rt *Router, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestRouterCacheHit: a key's first reply streams through unstored, its
// second is stored, and from then on the router answers it with the bytes
// the shard produced, in that shard's name, without reaching the shard.
func TestRouterCacheHit(t *testing.T) {
	f := newTestFleet(t, 2, nil)
	req := tinyRequest(0)
	var resps []*http.Response
	var bodies [][]byte
	for i := 0; i < 3; i++ {
		resp, body := f.simulate(t, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate %d: %s", i, resp.Status)
		}
		if i == 0 {
			if cs := f.router.cache.stats(); cs.Entries != 0 {
				t.Errorf("a key forwarded once was stored: %+v", cs)
			}
		}
		resps, bodies = append(resps, resp), append(bodies, body)
	}
	owner := f.router.Ring().Owner(req.Key()).Name
	for i, resp := range resps {
		h := resp.Header
		if got, want := h.Get("X-Fleet-Cache"), []string{"miss", "miss", "hit"}[i]; got != want {
			t.Errorf("request %d: X-Fleet-Cache = %q, want %q", i, got, want)
		}
		if h.Get("X-Fleet-Shard") != owner || h.Get("X-Fleet-Key") != req.Key() {
			t.Errorf("routing headers shard=%q key=%q, want %q and %q", h.Get("X-Fleet-Shard"), h.Get("X-Fleet-Key"), owner, req.Key())
		}
	}
	// The shard answers the same request with the same bytes.
	i, _ := strconv.Atoi(strings.TrimPrefix(owner, "s"))
	direct, err := http.Post(f.shards[i].URL+"/v1/simulate", "application/json", bytes.NewReader(mustJSON(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	shardBody := new(bytes.Buffer)
	shardBody.ReadFrom(direct.Body) //nolint:errcheck // test helper
	direct.Body.Close()
	for i, body := range bodies {
		if !bytes.Equal(body, shardBody.Bytes()) {
			t.Errorf("reply %d differs:\nrouter %s\nshard  %s", i, body, shardBody)
		}
	}
	// The shard saw the two misses and the direct request, not the hit.
	if st := f.service[i].Stats(); st.Simulated != 1 || st.MemoHits != 2 {
		t.Errorf("owner stats = %+v, want 1 simulation and 2 memo hits", st)
	}
	if cs := f.router.cache.stats(); cs.Hits != 1 || cs.Misses != 2 || cs.Entries != 1 {
		t.Errorf("router cache stats = %+v, want 1 hit, 2 misses, 1 entry", cs)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRouterCacheStoresOnlyAttested: errors, 504s, oversized bodies and
// replies attested for another key or cache version are relayed but never
// stored, so the third request reaches the shard again.
func TestRouterCacheStoresOnlyAttested(t *testing.T) {
	big := bytes.Repeat([]byte("x"), maxCacheEntryBytes+1)
	cases := []struct {
		name       string
		reply      func(w http.ResponseWriter, key string)
		wantStatus int
		wantStored bool
	}{
		{"attested 200", attestedReply, http.StatusOK, true},
		{"400", func(w http.ResponseWriter, key string) {
			server.Attest(w.Header(), key)
			w.WriteHeader(http.StatusBadRequest)
		}, http.StatusBadRequest, false},
		{"500", func(w http.ResponseWriter, key string) {
			server.Attest(w.Header(), key)
			w.WriteHeader(http.StatusInternalServerError)
		}, http.StatusInternalServerError, false},
		{"504", func(w http.ResponseWriter, key string) {
			server.Attest(w.Header(), key)
			w.WriteHeader(http.StatusGatewayTimeout)
		}, http.StatusBadGateway, false}, // retryable: the router reports no shard
		{"unattested 200", func(w http.ResponseWriter, key string) {
			w.Write(replyBody(key)) //nolint:errcheck // test stub
		}, http.StatusOK, false},
		{"200 for another key", func(w http.ResponseWriter, key string) {
			server.Attest(w.Header(), key+"x")
			w.Write(replyBody(key)) //nolint:errcheck // test stub
		}, http.StatusOK, false},
		{"200 from another cache version", func(w http.ResponseWriter, key string) {
			server.Attest(w.Header(), key)
			w.Header().Set("X-Sim-Cache-Version", strconv.Itoa(sim.CacheVersion+1))
			w.Write(replyBody(key)) //nolint:errcheck // test stub
		}, http.StatusOK, false},
		{"oversized 200", func(w http.ResponseWriter, key string) {
			server.Attest(w.Header(), key)
			w.Write(big) //nolint:errcheck // test stub
		}, http.StatusOK, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sent := httptest.NewRecorder()
			tc.reply(sent, tinyRequest(0).Key())
			st := newStubShard(t, tc.reply)
			rt := stubRouter(st)
			for i := 0; i < 3; i++ {
				rec := post(rt, tinyRequest(0))
				if rec.Code != tc.wantStatus {
					t.Fatalf("request %d: status %d, want %d", i, rec.Code, tc.wantStatus)
				}
				if tc.wantStatus != http.StatusBadGateway && !bytes.Equal(rec.Body.Bytes(), sent.Body.Bytes()) {
					t.Errorf("request %d: relayed %d bytes, shard sent %d", i, rec.Body.Len(), sent.Body.Len())
				}
			}
			wantCalls := int64(3)
			if tc.wantStored {
				wantCalls = 2
			}
			if got := st.calls.Load(); got != wantCalls {
				t.Errorf("shard saw %d calls, want %d", got, wantCalls)
			}
		})
	}
}

// TestRouterCacheEvictsOldestFirst: past the byte budget, the entry stored
// first goes first.
func TestRouterCacheEvictsOldestFirst(t *testing.T) {
	st := newStubShard(t, attestedReply)
	rt := stubRouter(st)
	key := tinyRequest(0).Key()
	entry := len(key) + len(replyBody(key))
	rt.cache.budget = 3 * entry
	for seq := 0; seq < 4; seq++ {
		post(rt, tinyRequest(seq))
		post(rt, tinyRequest(seq)) // the second forward is stored
	}
	for seq := 1; seq < 4; seq++ {
		if got := post(rt, tinyRequest(seq)).Header().Get("X-Fleet-Cache"); got != "hit" {
			t.Errorf("key %d: X-Fleet-Cache %q, want a hit", seq, got)
		}
	}
	if got := post(rt, tinyRequest(0)).Header().Get("X-Fleet-Cache"); got != "miss" {
		t.Errorf("oldest key: X-Fleet-Cache %q, want a miss", got)
	}
	// Storing key 0 again, on its first forward since the doorkeeper still
	// knows it, evicted key 1, the oldest left.
	if got := post(rt, tinyRequest(1)).Header().Get("X-Fleet-Cache"); got != "miss" {
		t.Errorf("key 1: X-Fleet-Cache %q, want a miss", got)
	}
	cs := rt.cache.stats()
	if cs.Evictions != 3 || cs.Entries != 3 || cs.Bytes != 3*entry {
		t.Errorf("stats = %+v, want 3 evictions and 3 entries of %d bytes", cs, entry)
	}
	metrics := get(rt, "/metrics").Body.String()
	for _, want := range []string{"gpurouter_cache_hits_total 3", "gpurouter_cache_misses_total 10",
		"gpurouter_cache_evictions_total 3", "gpurouter_cache_bytes " + strconv.Itoa(3*entry)} {
		if !strings.Contains(metrics, want) {
			t.Errorf("router /metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestRouterCacheConcurrent is the lock contract for the router cache:
// hits, misses that insert and evict, and both stats readers run at once
// under a budget of a few entries. A respCache method that lost its lock
// races with the others.
func TestRouterCacheConcurrent(t *testing.T) {
	st := newStubShard(t, attestedReply)
	rt := stubRouter(st)
	key := tinyRequest(0).Key()
	rt.cache.budget = 8 * (len(key) + len(replyBody(key)))

	const rounds = 100
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f(i)
			}
		}()
	}
	run(func(i int) { post(rt, tinyRequest(i%2)); post(rt, tinyRequest(i%2)) })
	run(func(i int) { post(rt, tinyRequest(1000+i)); post(rt, tinyRequest(1000+i)) })
	run(func(i int) { post(rt, tinyRequest(2000+i)); post(rt, tinyRequest(2000+i)) })
	run(func(int) { get(rt, "/metrics") })
	run(func(int) { get(rt, "/v1/fleet/stats") })
	wg.Wait()

	cs := rt.cache.stats()
	if cs.Hits+cs.Misses != 6*rounds || int64(cs.Misses) != st.calls.Load() {
		t.Errorf("stats = %+v with %d shard calls, want %d requests and one call per miss", cs, st.calls.Load(), 6*rounds)
	}
	if cs.Hits == 0 || cs.Evictions == 0 || cs.Bytes > rt.cache.budget || cs.Entries != 8 {
		t.Errorf("stats = %+v, want hits, evictions and 8 entries within %d bytes", cs, rt.cache.budget)
	}
}

// TestRouterPoolsShardConnections: the router keeps enough idle
// connections per shard that 8 clients forwarding through it do not redial
// the shard. The transport puts a connection back in its pool just after
// the body's EOF, so a request can dial while one is on its way back: 9 or
// 10 connections happen, the default pool of 2 opens about 70.
func TestRouterPoolsShardConnections(t *testing.T) {
	st := newStubShard(t, attestedReply)
	front := httptest.NewServer(stubRouter(st).Handler())
	defer front.Close()
	const concurrency, requests = 8, 200
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: concurrency}}
	defer client.CloseIdleConnections()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)); i <= requests; i = int(next.Add(1)) {
				body, _ := json.Marshal(tinyRequest(i))
				resp, err := client.Post(front.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if st.calls.Load() != requests {
		t.Fatalf("shard saw %d calls, want %d distinct keys forwarded", st.calls.Load(), requests)
	}
	if got := st.conns.Load(); got > 2*concurrency {
		t.Errorf("router opened %d shard connections for %d requests at concurrency %d", got, requests, concurrency)
	}
}

// TestPeerFetchMissKeepsConnection: a peer's 404 is drained before the
// body closes, so a run of misses reuses one connection.
func TestPeerFetchMissKeepsConnection(t *testing.T) {
	var conns atomic.Int64
	peer := httptest.NewUnstartedServer(server.New(sim.NewService(sim.Options{CacheDir: t.TempDir()}), server.Config{}).Handler())
	peer.Config.ConnState = countNewConns(&conns)
	peer.Start()
	defer peer.Close()

	pc := NewPeerCache([]string{peer.URL}, 0)
	for seq := 0; seq < 20; seq++ {
		if _, ok := pc.Fetch(context.Background(), tinyRequest(seq).Key()); ok {
			t.Fatalf("key %d: fetched an entry from an empty peer", seq)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("20 peer misses opened %d connections, want 1", got)
	}
}

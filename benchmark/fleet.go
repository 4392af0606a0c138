package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpusched/internal/fleet"
	"gpusched/internal/server"
	"gpusched/internal/sim"
	"gpusched/internal/sm"
	"gpusched/internal/workloads"
)

// fleetSizes fixes the traffic of fleet-serve. Keys are numbered in the
// order they are first sent. Every block sends NewPerBlock keys for the
// first time and fills the rest of its Block requests with repeats drawn
// from the Window keys that came before it, so every block has the same
// mix, whatever its number: the timed section is stationary and can be cut
// at any block. Window is larger than both shards' memos together
// (MaxFlights each), so some repeats find their key evicted from the memo
// and are read back from the disk cache.
type fleetSizes struct {
	Clients     int `json:"clients"`
	Window      int `json:"window"`
	Block       int `json:"block"`
	NewPerBlock int `json:"new_per_block"`
	MaxFlights  int `json:"max_flights"`
}

// clients is the number of client goroutines and connections. The callers
// are sweep scripts and loadgen, which wait for each reply: a closed loop,
// with never more clients than CPUs.
func (fs fleetSizes) clients() int { return min(fs.Clients, runtime.NumCPU()) }

// fleetShapes are the simulations behind the keys: five suite kernels
// under three scheduling policies at the smallest scale. Key k simulates
// shape k mod 15; its MaxCycles bound differs from every other key's, which
// changes the cache key and not the work (the kernels finish far below it),
// the same device cmd/loadgen uses.
func fleetShapes() []sim.Request {
	var out []sim.Request
	for _, w := range []string{"vadd", "stencil", "spmv", "sgemm", "kmeans"} {
		for _, p := range []struct {
			sched sim.SchedSpec
			warp  sm.Policy
		}{{sim.Baseline(), sm.PolicyGTO}, {sim.LCS(), sm.PolicyGTO}, {sim.BCS(2), sm.PolicyBAWS}} {
			out = append(out, sim.Request{Workloads: []string{w}, Sched: p.sched, Warp: p.warp, Scale: workloads.ScaleTest})
		}
	}
	return out
}

const fleetSaltBase = 20_000_000

func fleetRequest(shapes []sim.Request, k int) sim.Request {
	r := shapes[k%len(shapes)]
	r.MaxCycles = fleetSaltBase + uint64(k)
	return r
}

// blockSchedule returns the key numbers of block b in sending order: the
// block's new keys, each once, and repeats of earlier keys, shuffled.
func blockSchedule(rng *rand.Rand, fs fleetSizes, b int) (keys []int, firstNew int) {
	firstNew = fs.Window + b*fs.NewPerBlock
	keys = make([]int, 0, fs.Block)
	for k := firstNew; k < firstNew+fs.NewPerBlock; k++ {
		keys = append(keys, k)
	}
	for len(keys) < fs.Block {
		keys = append(keys, firstNew-1-rng.Intn(fs.Window))
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys, firstNew
}

// fleetEnv is the fleet under test, all in this process: two shards, each
// a sim.Service with its own disk cache behind a server.Server, which fetch
// from each other before simulating, and a started router in front.
type fleetEnv struct {
	fs      fleetSizes
	tr      *tracer
	dir     string
	shapes  []sim.Request
	want    []sim.Outcome // per shape, from sim.Service.Run called directly
	svcs    []*sim.Service
	servers []*server.Server
	shards  []*httptest.Server
	router  *fleet.Router
	front   *httptest.Server
	clients []*http.Client
	nextReq atomic.Int64
	blocks  int
	keysOut int // distinct keys sent so far
}

func bootFleet(fs fleetSizes, tr *tracer, tmpRoot string) (*fleetEnv, error) {
	e := &fleetEnv{fs: fs, tr: tr, shapes: fleetShapes()}
	var err error
	if e.dir, err = os.MkdirTemp(tmpRoot, "fleet-"); err != nil {
		return nil, err
	}

	// What every response must say, computed without the fleet.
	direct := sim.NewService(sim.Options{})
	for _, shape := range e.shapes {
		out, err := direct.Run(context.Background(), shape)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("expected outcome of %s: %w", shape.Key(), err)
		}
		e.want = append(e.want, out)
	}

	const nShards = 2
	for i := 0; i < nShards; i++ {
		e.shards = append(e.shards, httptest.NewUnstartedServer(nil))
	}
	var ringShards []*fleet.Shard
	for i, ts := range e.shards {
		url := "http://" + ts.Listener.Addr().String()
		var peers []string
		for j, other := range e.shards {
			if j != i {
				peers = append(peers, "http://"+other.Listener.Addr().String())
			}
		}
		svc := sim.NewService(sim.Options{
			CacheDir:   filepath.Join(e.dir, fmt.Sprintf("s%d", i)),
			MaxFlights: fs.MaxFlights,
			PeerFetch:  fleet.NewPeerCache(peers, 0).Fetch,
		})
		srv := server.New(svc, server.Config{})
		e.svcs = append(e.svcs, svc)
		e.servers = append(e.servers, srv)
		ts.Config.Handler = e.timed("server", srv.Handler())
		ts.Start()
		ringShards = append(ringShards, &fleet.Shard{Name: fmt.Sprintf("s%d", i), URL: url})
	}
	e.router = fleet.NewRouter(ringShards, fleet.Config{})
	e.router.Start()
	e.front = httptest.NewServer(e.timed("fleet", e.router.Handler()))

	for i := 0; i < fs.clients(); i++ {
		e.clients = append(e.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute})
	}

	// Fill the window, so that the first timed block finds the fleet in
	// the state every later block finds it in.
	warm := make([]int, fs.Window)
	for k := range warm {
		warm[k] = k
	}
	if out := e.send(warm, 0); len(out.failures) > 0 {
		e.close()
		return nil, fmt.Errorf("filling the window: %s", out.failures[0])
	}
	e.keysOut = fs.Window
	return e, nil
}

func (e *fleetEnv) close() {
	if e.front != nil {
		e.front.Close()
	}
	if e.router != nil {
		e.router.Close()
	}
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	for _, ts := range e.shards {
		ts.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range e.servers {
		_ = srv.Shutdown(ctx) // no job was submitted; only stops the runners
	}
	_ = os.RemoveAll(e.dir) // scratch files of this run only
}

// benchIDField carries the request's number through the router to the
// shard. sim.Request's decoder ignores fields it does not know, and the
// router forwards the body untouched, so the timing wrappers on both can
// tell which request they are serving.
const benchIDField = `,"bench_id":`

// timed wraps a handler so that, while tracing is on, each POST it serves
// is recorded as a span of the named layer.
func (e *fleetEnv) timed(layer string, next http.Handler) http.Handler {
	if e.tr == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !e.tr.enabled() || r.Method != http.MethodPost {
			next.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		id := -1
		if i := bytes.LastIndex(body, []byte(benchIDField)); i >= 0 {
			id, _ = strconv.Atoi(string(bytes.TrimRight(body[i+len(benchIDField):], "}")))
		}
		sp := e.tr.begin(reqItem(id), layer, "simulate")
		next.ServeHTTP(w, r)
		e.tr.end(sp)
	})
}

func reqItem(id int) string { return "req-" + strconv.Itoa(id) }

// send issues the requests for keys from the client goroutines, each
// taking the next unsent one when its previous reply has arrived, and
// checks every reply. Keys numbered firstNew and above are new to the fleet.
func (e *fleetEnv) send(keys []int, firstNew int) itemOut {
	type reply struct {
		ms      float64
		status  int
		failure string
	}
	replies := make([]reply, len(keys))
	var next atomic.Int64
	var busy atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, client := range e.clients {
		wg.Add(1)
		go func(client *http.Client) {
			defer wg.Done()
			t0 := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(keys) {
					break
				}
				k := keys[i]
				class := "hit"
				if k >= firstNew {
					class = "miss"
				}
				ms, status, err := e.request(client, k, class)
				replies[i].ms, replies[i].status = ms, status
				if err != nil {
					replies[i].failure = fmt.Sprintf("key %d: %v", k, err)
				}
			}
			busy.Add(int64(time.Since(t0)))
		}(client)
	}
	wg.Wait()

	out := itemOut{ops: len(keys)}
	out.req.busyS = time.Duration(busy.Load()).Seconds()
	out.req.idleS = float64(len(e.clients))*time.Since(start).Seconds() - out.req.busyS
	for i, k := range keys {
		switch st := replies[i].status; {
		case st == http.StatusTooManyRequests:
			out.req.http429++
		case st >= 500:
			out.req.http5xx++
		}
		if replies[i].failure != "" {
			out.failures = append(out.failures, replies[i].failure)
			continue
		}
		res := e.want[k%len(e.shapes)].Result
		out.cycles += res.Cycles
		out.instr += res.InstrIssued
		if k >= firstNew {
			out.req.missMS = append(out.req.missMS, replies[i].ms)
			out.simulated = append(out.simulated, res)
			out.limits = append(out.limits, e.want[k%len(e.shapes)].Limits...)
		} else {
			out.req.hitMS = append(out.req.hitMS, replies[i].ms)
		}
	}
	return out
}

// request makes one round trip through the router and checks the reply
// against the outcome computed in set-up. The returned latency covers the
// round trip up to the last byte of the body, not the checking.
func (e *fleetEnv) request(client *http.Client, k int, class string) (ms float64, status int, err error) {
	req := fleetRequest(e.shapes, k)
	id := int(e.nextReq.Add(1))
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, err
	}
	body = append(body[:len(body)-1], benchIDField...)
	body = append(strconv.AppendInt(body, int64(id), 10), '}')

	sp := e.tr.begin(reqItem(id), "client", class)
	t0 := time.Now()
	resp, err := client.Post(e.front.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	ms = float64(time.Since(t0)) / 1e6
	e.tr.end(sp)
	if err != nil {
		return ms, 0, err
	}
	status = resp.StatusCode
	if status != http.StatusOK {
		return ms, status, fmt.Errorf("status %d: %.200s", status, data)
	}
	if resp.Header.Get("X-Fleet-Shard") == "" || resp.Header.Get("X-Fleet-Key") != req.Key() {
		return ms, status, fmt.Errorf("routing headers shard=%q key=%q, want key %q",
			resp.Header.Get("X-Fleet-Shard"), resp.Header.Get("X-Fleet-Key"), req.Key())
	}
	var got struct {
		Key     string      `json:"key"`
		Outcome sim.Outcome `json:"outcome"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		return ms, status, err
	}
	want := e.want[k%len(e.shapes)].Result
	if got.Key != req.Key() || got.Outcome.Result.Cycles != want.Cycles || got.Outcome.Result.InstrIssued != want.InstrIssued {
		return ms, status, fmt.Errorf("outcome %d cycles %d instructions under key %q, want %d and %d",
			got.Outcome.Result.Cycles, got.Outcome.Result.InstrIssued, got.Key, want.Cycles, want.InstrIssued)
	}
	return ms, status, nil
}

func (e *fleetEnv) stats() sim.Stats {
	var total sim.Stats
	for _, svc := range e.svcs {
		addStats(&total, svc.Stats())
	}
	return total
}

// block is the timed item: one block of the schedule.
func (e *fleetEnv) block(rng *rand.Rand) item {
	keys, firstNew := blockSchedule(rng, e.fs, e.blocks)
	e.blocks++
	return item{kind: "block", run: func(_ *tracer, _ string) itemOut {
		before := e.stats()
		out := e.send(keys, firstNew)
		out.svc = subStats(e.stats(), before)
		e.keysOut = firstNew + e.fs.NewPerBlock
		// A key is simulated at most once, however often it is asked for.
		out.ops++
		if total := e.stats().Simulated; total > e.keysOut {
			out.failures = append(out.failures, fmt.Sprintf("%d simulations for %d distinct keys", total, e.keysOut))
		}
		// Every reply was checked against the same table, so the table is
		// the block's canonical result.
		out.canon = canonical(e.want)
		return out
	}}
}

func setupFleet(sz sizes, tr *tracer) (*instance, error) {
	tmp, err := scratchDir()
	if err != nil {
		return nil, err
	}
	e, err := bootFleet(sz.Fleet, tr, tmp)
	if err != nil {
		return nil, err
	}
	return &instance{
		pass:  func(rng *rand.Rand) []item { return []item{e.block(rng)} },
		close: e.close,
		extra: e.directTimings,
	}, nil
}

// medianCall returns the median time of one call of f in nanoseconds,
// from rounds timings of batch calls each. Calls that take well under a
// microsecond are timed in batches so that reading the clock does not
// dominate.
func medianCall(rounds, batch int, f func()) float64 {
	ns := make([]float64, rounds)
	for i := range ns {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			f()
		}
		ns[i] = float64(time.Since(t0)) / float64(batch)
	}
	return median(ns)
}

// directTimings calls the serving layers' public functions directly, a
// thousand times or more each (the simulating path apart, which takes
// milliseconds), and reads the router's own counters.
func (e *fleetEnv) directTimings(m map[string]float64) (ops int, failures []string) {
	ctx := context.Background()
	req := fleetRequest(e.shapes, 0)
	key := req.Key()
	want := e.want[0]
	fail := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }

	m["sim.key_ns"] = medianCall(20, 100, func() { _ = req.Key() })

	memo := sim.NewService(sim.Options{})
	if _, err := memo.Run(ctx, req); err != nil {
		fail("direct memo warm-up: %v", err)
	}
	m["sim.run_memo_hit_us"] = medianCall(1000, 1, func() { _, _ = memo.Run(ctx, req) }) / 1e3

	// Key 0 was stored by its owner when the window was filled. A fresh
	// service on that directory has an empty memo, so Run reads the disk.
	owner := -1
	for i, svc := range e.svcs {
		if _, ok := svc.CacheEntryBytes(sim.CacheAddr(key)); ok {
			owner = i
		}
	}
	ops++
	if owner < 0 {
		fail("no shard holds key 0 on disk")
		return ops, failures
	}
	ownerDir := filepath.Join(e.dir, fmt.Sprintf("s%d", owner))
	m["sim.run_disk_hit_us"] = medianCall(1000, 1, func() {
		_, _ = sim.NewService(sim.Options{CacheDir: ownerDir}).Run(ctx, req)
	}) / 1e3
	ops++
	if st := func() sim.Stats {
		s := sim.NewService(sim.Options{CacheDir: ownerDir})
		_, _ = s.Run(ctx, req)
		return s.Stats()
	}(); st.DiskHits != 1 || st.Simulated != 0 {
		fail("a fresh service on a warm cache directory did not read the disk: %+v", st)
	}

	misses := sim.NewService(sim.Options{})
	var missMS []float64
	for k := 0; k < 2*len(e.shapes); k++ {
		r := fleetRequest(e.shapes, 1_000_000+k) // keys the fleet never sees
		t0 := time.Now()
		if _, err := misses.Run(ctx, r); err != nil {
			fail("direct miss: %v", err)
		}
		missMS = append(missMS, float64(time.Since(t0))/1e6)
	}
	m["sim.run_miss_ms"] = median(missMS)

	entry, err := sim.EncodeCacheEntry(key, want)
	if err != nil {
		fail("encode entry: %v", err)
	}
	m["sim.encode_entry_us"] = medianCall(1000, 1, func() { _, _ = sim.EncodeCacheEntry(key, want) }) / 1e3
	m["sim.decode_entry_us"] = medianCall(1000, 1, func() { _, _ = sim.DecodeCacheEntry(entry, key) }) / 1e3
	m["server.encode_outcome_us"] = medianCall(1000, 1, func() {
		_, _ = json.Marshal(map[string]any{"key": key, "outcome": want})
	}) / 1e3

	ring := e.router.Ring()
	m["fleet.ring_owner_ns"] = medianCall(20, 100, func() { _ = ring.Owner(key) })
	peer := fleet.NewPeerCache([]string{"http://" + e.shards[owner].Listener.Addr().String()}, 0)
	ops++
	if out, ok := peer.Fetch(ctx, key); !ok || out.Result.Cycles != want.Result.Cycles {
		fail("peer fetch of a present key failed")
	}
	m["fleet.peer_fetch_us"] = medianCall(1000, 1, func() { _, _ = peer.Fetch(ctx, key) }) / 1e3

	// Routing counters come from the router's own stats endpoint.
	var fleetStats struct {
		Fleet struct {
			Failovers uint64 `json:"failovers"`
		} `json:"fleet"`
	}
	ops++
	if resp, err := e.clients[0].Get(e.front.URL + "/v1/fleet/stats"); err != nil {
		fail("fleet stats: %v", err)
	} else {
		if err := json.NewDecoder(resp.Body).Decode(&fleetStats); err != nil {
			fail("fleet stats: %v", err)
		}
		resp.Body.Close()
	}
	m["fleet.failovers"] = float64(fleetStats.Fleet.Failovers)
	lo, hi := ^uint64(0), uint64(0)
	for _, s := range ring.Shards() {
		lo, hi = min(lo, s.Routed()), max(hi, s.Routed())
	}
	if lo > 0 {
		m["fleet.shard_balance"] = float64(hi) / float64(lo)
	}
	return ops, failures
}

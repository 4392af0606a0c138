// Command loadgen drives a gpurouter (or a single gpuschedd shard) with a
// configurable mix of cached, uncached, and duplicate POST /v1/simulate
// requests and reports what the fleet did with them: p50/p90/p99
// admission latency, fleet-wide dedup hit rate, and per-shard balance.
//
//	loadgen -target http://127.0.0.1:8070 -requests 200 -unique 32 -concurrency 16
//	loadgen -min-dedup 0.5   # gate for CI smokes
//
// The request pool holds -unique distinct cache keys (the per-key
// max_cycles override varies the key without changing the simulated
// work); each of the -requests draws uniformly from the pool via a seeded
// PRNG, so duplicates arrive interleaved across connections — exactly the
// traffic that must coalesce fleet-wide. Dedup is measured as the delta
// of the fleet's sim counters between start and finish, so a warm daemon
// doesn't inflate the rate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"gpusched/internal/server"
	"gpusched/internal/sim"
	"gpusched/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// counters is what the dedup measurement reads from /v1/fleet/stats
// (router) or /v1/stats (bare shard): the fleet's sim counters, and the
// requests the router answered from its own cache (0 on a bare shard).
type counters struct {
	sim        sim.Stats
	routerHits int
}

func (c counters) sub(o counters) counters {
	c.sim.Sub(o.sim)
	c.routerHits -= o.routerHits
	return c
}

func (c counters) dedupRate() float64 {
	return sim.DedupRate(c.routerHits+c.sim.Hits(), c.sim.Simulated)
}

// fetchCounters reads the target's aggregated sim counters; it tries the
// router's fleet endpoint first and falls back to a shard's /v1/stats. It
// fails, naming them, when some shards' counters are missing from the sum.
func fetchCounters(client *http.Client, target string) (counters, error) {
	resp, err := client.Get(target + "/v1/fleet/stats")
	if err == nil && resp.StatusCode == http.StatusOK {
		defer resp.Body.Close()
		var payload struct {
			Fleet struct {
				Sim         sim.Stats `json:"sim"`
				RouterCache struct {
					Hits int `json:"hits"`
				} `json:"router_cache"`
			} `json:"fleet"`
			Shards []struct {
				Name     string     `json:"name"`
				Sim      *sim.Stats `json:"sim"`
				StatsErr string     `json:"stats_error"`
			} `json:"shards"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
			return counters{}, err
		}
		// A sum that leaves out a shard is no baseline: a delta across it
		// would subtract counters that were never added.
		var missing []string
		for _, sh := range payload.Shards {
			if sh.Sim == nil {
				missing = append(missing, fmt.Sprintf("%s (%s)", sh.Name, sh.StatsErr))
			}
		}
		if len(missing) > 0 {
			return counters{}, fmt.Errorf("fleet stats leave out shards %s", strings.Join(missing, ", "))
		}
		return counters{sim: payload.Fleet.Sim, routerHits: payload.Fleet.RouterCache.Hits}, nil
	}
	if err == nil {
		resp.Body.Close()
	}
	resp, err = client.Get(target + "/v1/stats")
	if err != nil {
		return counters{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return counters{}, fmt.Errorf("stats endpoint: %s", resp.Status)
	}
	var view server.StatsView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return counters{}, err
	}
	return counters{sim: view.Sim}, nil
}

// result is one completed request as the client saw it.
type result struct {
	latency time.Duration
	status  int
	shard   string
	err     error
}

// percentile returns the p-th percentile (0..100) of sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		target      = fs.String("target", "http://127.0.0.1:8070", "router (or shard) base URL")
		requests    = fs.Int("requests", 200, "total requests to send")
		unique      = fs.Int("unique", 32, "distinct cache keys in the pool (requests > unique means duplicates)")
		concurrency = fs.Int("concurrency", 16, "concurrent client connections")
		workloadsCS = fs.String("workloads", "vadd", "comma-separated workload names rotated through the pool")
		scale       = fs.String("scale", "tiny", "problem scale for every request")
		cores       = fs.Int("cores", 4, "simulated SM count for every request")
		timeout     = fs.Duration("timeout", 2*time.Minute, "per-request client deadline")
		seed        = fs.Int64("seed", 1, "PRNG seed for the request schedule")
		minDedup    = fs.Float64("min-dedup", -1, "exit nonzero unless the fleet dedup hit rate reaches this (-1 = no gate)")
		jsonOut     = fs.Bool("json", false, "emit the report as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *requests <= 0 || *unique <= 0 || *concurrency <= 0 {
		fmt.Fprintln(stderr, "loadgen: -requests, -unique, -concurrency must be positive")
		return 2
	}
	names := strings.Split(*workloadsCS, ",")

	// The pool: -unique requests with distinct canonical keys. Varying the
	// max_cycles override flips the key without changing the simulated
	// work (tiny kernels finish far below any of these bounds).
	pool := make([][]byte, *unique)
	keys := make([]string, *unique)
	for i := range pool {
		req := sim.Request{
			Workloads: []string{strings.TrimSpace(names[i%len(names)])},
			Cores:     *cores,
			MaxCycles: 20_000_000 + uint64(i),
		}
		if *scale != "" {
			sc, err := workloads.ParseScale(*scale)
			if err != nil {
				fmt.Fprintf(stderr, "loadgen: %v\n", err)
				return 2
			}
			req.Scale = sc
		}
		body, err := json.Marshal(req)
		if err != nil {
			fmt.Fprintf(stderr, "loadgen: %v\n", err)
			return 2
		}
		pool[i] = body
		keys[i] = req.Key()
	}
	rng := rand.New(rand.NewSource(*seed))
	schedule := make([]int, *requests)
	for i := range schedule {
		schedule[i] = rng.Intn(*unique)
	}

	client := &http.Client{Timeout: *timeout}
	before, err := fetchCounters(client, *target)
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: reading baseline stats from %s: %v\n", *target, err)
		return 1
	}

	results := make([]result, *requests)
	start := time.Now()
	runSimulate(client, *target, pool, schedule, *concurrency, results)
	wall := time.Since(start)

	after, err := fetchCounters(client, *target)
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: reading final stats: %v\n", err)
		return 1
	}
	delta := after.sub(before)

	// Digest the per-request results.
	var lats []time.Duration
	errors := 0
	byShard := map[string]int{}
	for _, r := range results {
		if r.err != nil || r.status < 200 || r.status >= 300 {
			errors++
			continue
		}
		lats = append(lats, r.latency)
		if r.shard != "" {
			byShard[r.shard]++
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	shardNames := make([]string, 0, len(byShard))
	for name := range byShard {
		shardNames = append(shardNames, name)
	}
	sort.Strings(shardNames)

	report := map[string]any{
		"target":         *target,
		"requests":       *requests,
		"unique_keys":    *unique,
		"concurrency":    *concurrency,
		"errors":         errors,
		"wall_seconds":   wall.Seconds(),
		"throughput_rps": float64(*requests) / wall.Seconds(),
		"latency_ms": map[string]float64{
			"p50": percentile(lats, 50).Seconds() * 1000,
			"p90": percentile(lats, 90).Seconds() * 1000,
			"p99": percentile(lats, 99).Seconds() * 1000,
		},
		"fleet_delta": map[string]any{
			"simulated":      delta.sim.Simulated,
			"router_hits":    delta.routerHits,
			"memo_hits":      delta.sim.MemoHits,
			"disk_hits":      delta.sim.DiskHits,
			"peer_hits":      delta.sim.PeerHits,
			"dedup_hit_rate": delta.dedupRate(),
		},
	}
	balance := map[string]int{}
	for _, name := range shardNames {
		balance[name] = byShard[name]
	}
	report["shard_balance"] = balance

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.Encode(report) //nolint:errcheck // report output
	} else {
		fmt.Fprintf(stdout, "loadgen: %d requests (%d unique keys) against %s in %.2fs (%.1f req/s), %d errors\n",
			*requests, *unique, *target, wall.Seconds(), float64(*requests)/wall.Seconds(), errors)
		fmt.Fprintf(stdout, "  admission latency: p50 %.1fms  p90 %.1fms  p99 %.1fms\n",
			percentile(lats, 50).Seconds()*1000, percentile(lats, 90).Seconds()*1000, percentile(lats, 99).Seconds()*1000)
		fmt.Fprintf(stdout, "  fleet dedup: %d simulated, %d router + %d memo + %d disk + %d peer hits -> hit rate %.3f\n",
			delta.sim.Simulated, delta.routerHits, delta.sim.MemoHits, delta.sim.DiskHits, delta.sim.PeerHits, delta.dedupRate())
		for _, name := range shardNames {
			fmt.Fprintf(stdout, "  shard %-8s %5d requests (%.1f%%)\n", name, byShard[name],
				100*float64(byShard[name])/float64(len(lats)))
		}
	}

	if errors > 0 {
		fmt.Fprintf(stderr, "loadgen: %d/%d requests failed\n", errors, *requests)
		return 1
	}
	if *minDedup >= 0 && delta.dedupRate() < *minDedup {
		fmt.Fprintf(stderr, "loadgen: fleet dedup hit rate %.3f below required %.3f\n", delta.dedupRate(), *minDedup)
		return 1
	}
	return 0
}

// runSimulate drives POST /v1/simulate, one request per schedule entry,
// across `concurrency` workers. Latency is the full round trip — for a
// deduplicated or cached request that IS the admission latency the fleet
// delivers.
func runSimulate(client *http.Client, target string, pool [][]byte, schedule []int, concurrency int, results []result) {
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				body := pool[schedule[i]]
				t0 := time.Now()
				resp, err := client.Post(target+"/v1/simulate", "application/json", bytes.NewReader(body))
				if err != nil {
					results[i] = result{err: err, latency: time.Since(t0)}
					continue
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
				resp.Body.Close()
				results[i] = result{
					latency: time.Since(t0),
					status:  resp.StatusCode,
					shard:   resp.Header.Get("X-Fleet-Shard"),
				}
			}
		}()
	}
	for i := range schedule {
		work <- i
	}
	close(work)
	wg.Wait()
}

package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpusched/internal/fleet"
	"gpusched/internal/server"
	"gpusched/internal/sim"
)

func TestPercentile(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sorted := []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(100)}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, ms(1)},
		{50, ms(3)},
		{99, ms(4)},
		{100, ms(100)},
	}
	for _, tc := range cases {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(p=%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of empty = %v, want 0", got)
	}
}

func TestSimCountersDedupRate(t *testing.T) {
	c := counters{sim: sim.Stats{Simulated: 2, MemoHits: 4, DiskHits: 1, PeerHits: 1}}
	if got := c.dedupRate(); got != 0.75 {
		t.Errorf("dedupRate = %v, want 0.75", got)
	}
	if got := (counters{}).dedupRate(); got != 0 {
		t.Errorf("empty dedupRate = %v, want 0", got)
	}
	d := c.sub(counters{sim: sim.Stats{Simulated: 1, MemoHits: 2}})
	if d.sim.Simulated != 1 || d.sim.MemoHits != 2 || d.sim.Hits() != 4 {
		t.Errorf("sub = %+v", d)
	}
}

func TestSimCountersRouterHits(t *testing.T) {
	c := counters{sim: sim.Stats{Simulated: 2, MemoHits: 1}, routerHits: 5}
	if got := c.dedupRate(); got != 0.75 {
		t.Errorf("dedupRate = %v, want 0.75 with router hits counted", got)
	}
	d := c.sub(counters{routerHits: 3})
	if d.routerHits != 2 || d.routerHits+d.sim.Hits() != 3 {
		t.Errorf("sub = %+v, want 2 router hits of 3", d)
	}
}

// newLoadgenFleet boots a real 2-shard fleet behind a router, all over
// httptest, and returns the router's base URL and the shards' servers.
func newLoadgenFleet(t *testing.T) (string, []*httptest.Server) {
	t.Helper()
	var members []*fleet.Shard
	var shards []*httptest.Server
	for _, name := range []string{"s0", "s1"} {
		svc := sim.NewService(sim.Options{CacheDir: t.TempDir()})
		ts := httptest.NewServer(server.New(svc, server.Config{}).Handler())
		t.Cleanup(ts.Close)
		members = append(members, &fleet.Shard{Name: name, URL: ts.URL})
		shards = append(shards, ts)
	}
	router := fleet.NewRouter(members, fleet.Config{})
	front := httptest.NewServer(router.Handler())
	t.Cleanup(front.Close)
	return front.URL, shards
}

// TestFetchCountersShardDown: with a shard stopped, the router's sum is
// partial, and fetchCounters refuses it with an error naming that shard
// instead of returning a baseline a later delta would underflow against.
func TestFetchCountersShardDown(t *testing.T) {
	target, shards := newLoadgenFleet(t)
	client := &http.Client{Timeout: 10 * time.Second}
	if _, err := fetchCounters(client, target); err != nil {
		t.Fatalf("fetchCounters with every shard up: %v", err)
	}
	shards[1].Close()
	_, err := fetchCounters(client, target)
	if err == nil || !strings.Contains(err.Error(), "s1 (") || strings.Contains(err.Error(), "s0") {
		t.Errorf("fetchCounters with s1 down: err = %v, want one naming s1 alone", err)
	}
}

// TestLoadgenAgainstFleet: the full harness path — loadgen drives a
// 2-shard fleet, sees zero errors, and measures the dedup the duplicate
// schedule guarantees (24 requests over 4 keys).
func TestLoadgenAgainstFleet(t *testing.T) {
	t.Run("simulate", func(t *testing.T) {
		target, _ := newLoadgenFleet(t)
		var stdout, stderr bytes.Buffer
		code := run([]string{
			"-target", target,
			"-requests", "24",
			"-unique", "4",
			"-concurrency", "4",
			"-scale", "tiny",
			"-min-dedup", "0.5",
			"-json",
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("loadgen exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
		}
		var report struct {
			Errors     int `json:"errors"`
			FleetDelta struct {
				Simulated    int     `json:"simulated"`
				RouterHits   int     `json:"router_hits"`
				DedupHitRate float64 `json:"dedup_hit_rate"`
			} `json:"fleet_delta"`
			Latency map[string]float64 `json:"latency_ms"`
			Balance map[string]int     `json:"shard_balance"`
		}
		if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
			t.Fatalf("decoding report: %v\n%s", err, stdout.String())
		}
		if report.Errors != 0 {
			t.Errorf("report counts %d errors", report.Errors)
		}
		// 4 unique keys: everything past the first hit of each key is a
		// cache hit somewhere in the fleet.
		if report.FleetDelta.Simulated != 4 {
			t.Errorf("fleet simulated %d, want 4 (one per unique key)", report.FleetDelta.Simulated)
		}
		if report.FleetDelta.RouterHits == 0 {
			t.Error("no request was answered from the router cache")
		}
		if rate := report.FleetDelta.DedupHitRate; rate < 0.5 {
			t.Errorf("dedup_hit_rate = %v, want >= 0.5", rate)
		}
		if _, ok := report.Latency["p99"]; !ok {
			t.Error("report has no p99 latency")
		}
		total := 0
		for _, n := range report.Balance {
			total += n
		}
		if total != 24 {
			t.Errorf("shard balance accounts for %d requests, want 24 (%v)", total, report.Balance)
		}
	})
}

func TestLoadgenFlagErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-requests", "0"}, &stdout, &stderr); code != 2 {
		t.Errorf("zero requests: exit %d, want 2", code)
	}
	if code := run([]string{"-scale", "galactic"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad scale: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "scale") {
		t.Errorf("stderr %q does not mention the bad scale", stderr.String())
	}
}

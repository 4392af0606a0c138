package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gpusched/internal/server"
	"gpusched/internal/sim"
)

func TestParseShards(t *testing.T) {
	cases := []struct {
		spec      string
		wantNames []string
		wantErr   string
	}{
		{"http://a:8080,http://b:8080", []string{"s0", "s1"}, ""},
		{"east=http://a:8080, west=http://b:8080/", []string{"east", "west"}, ""},
		{"http://a:8080, ,http://b:8080", []string{"s0", "s2"}, ""},
		{"", nil, "no shards"},
		{"   ,  ", nil, "no shards"},
		{"a:8080", nil, "bad shard URL"},
		{"east=", nil, "bad shard URL"},
		{"=http://a:8080", nil, "bad shard name"},
		{"e/w=http://a:8080", nil, "bad shard name"},
		{"east=http://a:8080,east=http://b:8080", nil, "duplicate shard name"},
	}
	for _, tc := range cases {
		shards, err := parseShards(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseShards(%q) err = %v, want mention of %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseShards(%q): %v", tc.spec, err)
			continue
		}
		var names []string
		for _, s := range shards {
			names = append(names, s.Name)
			if strings.HasSuffix(s.URL, "/") {
				t.Errorf("parseShards(%q): URL %q keeps its trailing slash", tc.spec, s.URL)
			}
		}
		if fmt.Sprint(names) != fmt.Sprint(tc.wantNames) {
			t.Errorf("parseShards(%q) names = %v, want %v", tc.spec, names, tc.wantNames)
		}
	}
}

// syncBuf is a goroutine-safe buffer for capturing daemon output.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRouterDaemonEndToEnd boots two real shard handlers and the router
// daemon on an ephemeral port, sends a duplicate pair of requests
// through it, and watches the fleet stats report the dedup.
func TestRouterDaemonEndToEnd(t *testing.T) {
	shardA := httptest.NewServer(server.New(sim.NewService(sim.Options{}), server.Config{}).Handler())
	defer shardA.Close()
	shardB := httptest.NewServer(server.New(sim.NewService(sim.Options{}), server.Config{}).Handler())
	defer shardB.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuf
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-shards", "a=" + shardA.URL + ",b=" + shardB.URL,
			"-probe-interval", "50ms",
		}, &stdout, &stderr)
	}()

	var base string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		out := stdout.String()
		if _, after, ok := strings.Cut(out, "listening on "); ok {
			base = "http://" + strings.Fields(after)[0]
			break
		}
	}
	if base == "" {
		t.Fatalf("router never came up\nstdout: %s\nstderr: %s", stdout.String(), stderr.String())
	}

	body := `{"workloads":["vadd"],"scale":"tiny","cores":4}`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(base+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate %d: %s", i, resp.Status)
		}
	}
	sr, err := http.Get(base + "/v1/fleet/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Fleet struct {
			ShardsHealthy int       `json:"shards_healthy"`
			DedupHitRate  float64   `json:"dedup_hit_rate"`
			Sim           sim.Stats `json:"sim"`
		} `json:"fleet"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if stats.Fleet.Sim.Simulated != 1 || stats.Fleet.Sim.MemoHits != 1 {
		t.Errorf("fleet sim counters = %+v, want 1 simulated + 1 memo hit", stats.Fleet.Sim)
	}
	if stats.Fleet.DedupHitRate != 0.5 {
		t.Errorf("dedup_hit_rate = %v, want 0.5", stats.Fleet.DedupHitRate)
	}
	if stats.Fleet.ShardsHealthy != 2 {
		t.Errorf("shards_healthy = %d, want 2", stats.Fleet.ShardsHealthy)
	}

	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Errorf("router exited %d\nstderr: %s", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("router did not shut down")
	}
}

func TestRunFlagErrors(t *testing.T) {
	var stdout, stderr syncBuf
	if code := run(context.Background(), []string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{}, &stdout, &stderr); code != 2 {
		t.Errorf("missing -shards: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "no shards") {
		t.Errorf("stderr %q does not explain the missing -shards", stderr.String())
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuf is a goroutine-safe writer: the daemon logs from its own
// goroutine while the test polls the contents.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestDaemonEndToEnd boots the daemon on an ephemeral port, waits for
// readiness, runs one paper workload over HTTP, checks /metrics saw the
// simulation, then stops it the way SIGTERM would and expects a clean
// drain.
func TestDaemonEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errb syncBuf
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-addr", "127.0.0.1:0", "-cache", "off", "-drain", "10s"}, &out, &errb)
	}()

	// The daemon prints its bound address once the listener is up.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if s := out.String(); strings.Contains(s, "listening on ") {
			rest := s[strings.Index(s, "listening on ")+len("listening on "):]
			base = "http://" + strings.Fields(rest)[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stderr: %s", errb.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	get := func(path string) (int, []byte) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}

	for code, data := get("/readyz"); code != http.StatusOK; code, data = get("/readyz") {
		if time.Now().After(deadline) {
			t.Fatalf("readyz = %d: %s", code, data)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Post(base+"/v1/simulate", "application/json",
		strings.NewReader(`{"workloads":["vadd"],"sched":"lcs","scale":"tiny","cores":4}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate = %d: %s", resp.StatusCode, body)
	}
	var sim struct {
		Outcome struct {
			Result struct {
				Cycles uint64 `json:"Cycles"`
			} `json:"Result"`
		} `json:"outcome"`
	}
	if err := json.Unmarshal(body, &sim); err != nil {
		t.Fatal(err)
	}
	if sim.Outcome.Result.Cycles == 0 {
		t.Fatalf("simulate reply has no cycles: %s", body)
	}

	if _, data := get("/metrics"); !strings.Contains(string(data), "gpuschedd_sim_simulated_total 1") {
		t.Errorf("/metrics does not report the simulation:\n%s", data)
	}

	// Stop the daemon as the signal handler would and expect a clean exit.
	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after shutdown")
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Errorf("missing drain log; stdout: %s", out.String())
	}
}

func TestRunFlagAndListenErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-addr", "256.256.256.256:0"}, &out, &errb); code != 1 {
		t.Errorf("bad listen exit = %d, want 1", code)
	}
}

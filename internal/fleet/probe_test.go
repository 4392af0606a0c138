package fleet

import (
	"net"
	"sync"
	"testing"
	"time"
)

// TestProberStopCancelsInflightProbes: Stop must return promptly even
// when a probed host is black-holed (accepts the TCP connection, never
// answers the HTTP request). Regression test: probe requests used to be
// built without the prober's lifecycle context, so Stop blocked until the
// per-probe client timeout expired against such a host.
func TestProberStopCancelsInflightProbes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		connsMu sync.Mutex
		conns   []net.Conn
	)
	defer func() {
		connsMu.Lock()
		defer connsMu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}()
	defer ln.Close()
	accepted := make(chan struct{}, 16)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			connsMu.Lock()
			conns = append(conns, conn) // hold open, never respond
			connsMu.Unlock()
			accepted <- struct{}{}
		}
	}()

	shard := &Shard{Name: "s0", URL: "http://" + ln.Addr().String()}
	// A one-hour interval isolates the immediate boot-time round; its
	// 30-minute probe timeout is what Stop must NOT wait out.
	prober := NewProber(NewRing([]*Shard{shard}), time.Hour, nil)
	prober.Start()
	select {
	case <-accepted: // the first probe is in flight against the black hole
	case <-time.After(5 * time.Second):
		t.Fatal("probe never reached the listener")
	}

	start := time.Now()
	prober.Stop()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Stop took %v against a black-holed shard; want prompt cancellation of the in-flight probe", elapsed)
	}
}

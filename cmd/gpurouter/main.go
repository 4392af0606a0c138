// Command gpurouter is the fleet front door: it consistent-hashes
// incoming simulation requests by their canonical cache key onto N
// gpuschedd shards, so singleflight dedup and the on-disk result cache
// act fleet-wide — duplicate requests from any number of clients simulate
// exactly once, on one shard.
//
//	gpurouter -shards http://10.0.0.1:8080,http://10.0.0.2:8080
//	gpurouter -shards s-east=http://a:8080,s-west=http://b:8080 -probe-interval 500ms
//
// The router serves POST /v1/simulate, GET /v1/fleet/stats, /readyz and
// /metrics. Shards are probed on /readyz every -probe-interval; a shard
// that fails two probes or forwards in a row is marked down and its keys
// rehash onto the survivors. On transport errors and 502/503/504 a
// forward fails over to up to two more shards, after 50 ms and then
// 100 ms. The router keeps the shards' attested replies to keys it
// forwarded twice, up to 16 MiB, and answers later repeats itself.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gpusched/internal/fleet"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// parseShards turns the -shards flag into the ring membership. Entries
// are "url" (named s0, s1, ... by position) or "name=url". Names feed the
// rendezvous hash, so naming shards explicitly keeps placement stable
// when the fleet's URL list is reordered or a shard changes address.
func parseShards(spec string) ([]*fleet.Shard, error) {
	var shards []*fleet.Shard
	seen := map[string]bool{}
	for i, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, url, found := strings.Cut(entry, "=")
		if !found {
			name, url = fmt.Sprintf("s%d", i), entry
		}
		url = strings.TrimRight(strings.TrimSpace(url), "/")
		name = strings.TrimSpace(name)
		if name == "" || strings.Contains(name, "/") {
			return nil, fmt.Errorf("bad shard name %q (must be nonempty, no '/')", name)
		}
		if url == "" || !strings.Contains(url, "://") {
			return nil, fmt.Errorf("bad shard URL %q (want http://host:port)", url)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate shard name %q", name)
		}
		seen[name] = true
		shards = append(shards, &fleet.Shard{Name: name, URL: url})
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("no shards configured (-shards)")
	}
	return shards, nil
}

// run serves until ctx is canceled; it is the testable core.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpurouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", ":8070", "listen address")
		shardsSpec    = fs.String("shards", "", "comma-separated shard base URLs, each 'url' or 'name=url' (required)")
		probeInterval = fs.Duration("probe-interval", time.Second, "shard health probe period (each probe may take half)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	shards, err := parseShards(*shardsSpec)
	if err != nil {
		fmt.Fprintf(stderr, "gpurouter: %v\n", err)
		return 2
	}

	router := fleet.NewRouter(shards, fleet.Config{
		ProbeInterval: *probeInterval,
		OnHealthChange: func(s *fleet.Shard, up bool) {
			if up {
				fmt.Fprintf(stdout, "gpurouter: shard %s (%s) recovered\n", s.Name, s.URL)
			} else {
				fmt.Fprintf(stderr, "gpurouter: shard %s (%s) marked down: %s\n", s.Name, s.URL, s.LastError())
			}
		},
	})
	router.Start()
	defer router.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "gpurouter: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: router.Handler(), ReadHeaderTimeout: 10 * time.Second}
	names := make([]string, len(shards))
	for i, s := range shards {
		names[i] = s.Name
	}
	fmt.Fprintf(stdout, "gpurouter listening on %s (%d shards: %s)\n", ln.Addr(), len(shards), strings.Join(names, ","))

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "gpurouter: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	fmt.Fprintf(stdout, "gpurouter: signal received, shutting down\n")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		fmt.Fprintf(stderr, "gpurouter: http shutdown: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "gpurouter: stopped\n")
	return 0
}

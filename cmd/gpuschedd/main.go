// Command gpuschedd is the simulation daemon: a long-lived HTTP front
// door over the internal/sim service layer, so many clients can run
// kernel-scheduling experiments concurrently and share one deduplicating
// result cache instead of each running a one-shot CLI.
//
//	gpuschedd                          # serve on :8080, cache in results/.simcache
//	gpuschedd -addr :9090 -cache off   # stateless
//
// Run a simulation; the reply carries its cache key and outcome:
//
//	curl -s localhost:8080/v1/simulate -d '{"workloads":["spmv"],"sched":"lcs","scale":"small"}'
//
// The daemon drains gracefully on SIGINT/SIGTERM: readiness flips to 503,
// in-flight simulations finish (up to -drain), then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gpusched/internal/fleet"
	"gpusched/internal/server"
	"gpusched/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run serves until ctx is canceled (the signal handler in main) or the
// listener fails. It is the testable core: the test harness drives it with
// its own context and buffers.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpuschedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		simWorkers   = fs.Int("sim-workers", 0, "concurrent simulator executions (0 = GOMAXPROCS)")
		cacheDir     = fs.String("cache", "results/.simcache", "on-disk result cache directory ('off' = disabled)")
		cacheEntries = fs.Int("cache-entries", 0, "on-disk cache entry budget; oldest-mtime entries are evicted on store (0 = unbounded)")
		cacheBytes   = fs.Int64("cache-bytes", 0, "on-disk cache byte budget (0 = unbounded)")
		peers        = fs.String("peers", "", "comma-separated peer shard base URLs for fetch-before-simulate (fleet peer-cache protocol)")
		peerTimeout  = fs.Duration("peer-timeout", 2*time.Second, "per-peer deadline for one cache fetch")
		maxFlights   = fs.Int("max-flights", 4096, "in-memory result memo cap (0 = unbounded)")
		syncTimeout  = fs.Duration("sync-timeout", 2*time.Minute, "deadline for POST /v1/simulate")
		drain        = fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight simulations")
		pprofAddr    = fs.String("pprof", "", "listen address for net/http/pprof (empty = disabled)")
		verbose      = fs.Bool("v", false, "log each completed simulation")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opt := sim.Options{
		Workers: *simWorkers, MaxFlights: *maxFlights,
		CacheEntries: *cacheEntries, CacheBytes: *cacheBytes,
	}
	if *cacheDir != "" && *cacheDir != "off" {
		opt.CacheDir = *cacheDir
	}
	if *peers != "" {
		var urls []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
				urls = append(urls, p)
			}
		}
		if len(urls) > 0 {
			opt.PeerFetch = fleet.NewPeerCache(urls, *peerTimeout).Fetch
		}
	}
	if *verbose {
		opt.Progress = stderr
	}
	svc := sim.NewService(opt)
	srv := server.New(svc, server.Config{SyncTimeout: *syncTimeout})

	// The profiling endpoints live on their own listener so the public
	// API never exposes them; net/http/pprof registers its handlers
	// on http.DefaultServeMux at import.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(stderr, "gpuschedd: pprof: %v\n", err)
			return 1
		}
		defer pln.Close()
		go func() { _ = http.Serve(pln, nil) }()
		fmt.Fprintf(stdout, "gpuschedd pprof listening on %s\n", pln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "gpuschedd: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	fmt.Fprintf(stdout, "gpuschedd listening on %s (cache %q)\n", ln.Addr(), opt.CacheDir)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "gpuschedd: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "gpuschedd: signal received, draining (up to %v)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Flip readiness first, then stop accepting connections and wait for
	// in-flight simulations.
	_ = srv.Shutdown(dctx) // only flips readiness; it cannot fail
	if err := httpSrv.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "gpuschedd: drain incomplete: %v\n", err)
		return 1
	}
	st := svc.Stats()
	fmt.Fprintf(stdout, "gpuschedd: drained cleanly (%d simulated, %d memo hits, %d disk hits)\n",
		st.Simulated, st.MemoHits, st.DiskHits)
	return 0
}

// Command gpuschedd is the simulation daemon: a long-lived HTTP front
// door over the internal/sim service layer, so a fleet of clients can
// submit, watch, and cancel kernel-scheduling experiments concurrently
// instead of each running a one-shot CLI.
//
//	gpuschedd                        # serve on :8080, cache in results/.simcache
//	gpuschedd -addr :9090 -queue 256 # bigger admission queue
//	gpuschedd -cache off -ttl 5m     # stateless, short-lived results
//
// Submit a job and poll it:
//
//	curl -s localhost:8080/v1/jobs -d '{"workloads":["spmv"],"sched":"lcs","scale":"small"}'
//	curl -s localhost:8080/v1/jobs/job-1
//
// The daemon drains gracefully on SIGINT/SIGTERM: admission stops,
// in-flight jobs finish (up to -drain), then the process exits.
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
		workers      = fs.Int("workers", 0, "job runner goroutines (0 = GOMAXPROCS)")
		simWorkers   = fs.Int("sim-workers", 0, "concurrent simulator executions (0 = GOMAXPROCS)")
		tickGranule  = fs.Uint64("tick-granule", 0, "min proven-quiet cycles before an SM is parked out of the tick loop (0 = built-in default; never changes results)")
		batchWindow  = fs.Uint64("batch-window", 0, "max memory-system cycles batched into one call when every SM provably sleeps (0 = built-in default, 1 = off; never changes results)")
		queue        = fs.Int("queue", 64, "admission queue depth (full queue = HTTP 429)")
		cacheDir     = fs.String("cache", "results/.simcache", "on-disk result cache directory ('off' = disabled)")
		cacheEntries = fs.Int("cache-entries", 0, "on-disk cache entry budget; oldest-mtime entries are evicted on store (0 = unbounded)")
		cacheBytes   = fs.Int64("cache-bytes", 0, "on-disk cache byte budget (0 = unbounded)")
		peers        = fs.String("peers", "", "comma-separated peer shard base URLs for fetch-before-simulate (fleet peer-cache protocol)")
		peerTimeout  = fs.Duration("peer-timeout", 2*time.Second, "per-peer deadline for one cache fetch")
		maxFlights   = fs.Int("max-flights", 4096, "in-memory result memo cap (0 = unbounded)")
		ttl          = fs.Duration("ttl", time.Hour, "how long finished jobs stay queryable")
		timeout      = fs.Duration("timeout", 0, "default per-job deadline (0 = none)")
		maxTimeout   = fs.Duration("max-timeout", 0, "cap on client-requested job deadlines (0 = uncapped)")
		syncTimeout  = fs.Duration("sync-timeout", 2*time.Minute, "deadline for POST /v1/simulate")
		drain        = fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
		pprofAddr    = fs.String("pprof", "", "listen address for net/http/pprof (empty = disabled)")
		verbose      = fs.Bool("v", false, "log each completed simulation")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opt := sim.Options{
		Workers: *simWorkers, TickGranule: *tickGranule, BatchWindow: *batchWindow,
		MaxFlights: *maxFlights, CacheEntries: *cacheEntries, CacheBytes: *cacheBytes,
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
	srv := server.New(svc, server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		ResultTTL:      *ttl,
		SyncTimeout:    *syncTimeout,
	})

	// The profiling endpoints live on their own listener so the public
	// job API never exposes them; net/http/pprof registers its handlers
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
	fmt.Fprintf(stdout, "gpuschedd listening on %s (cache %q, queue %d)\n", ln.Addr(), opt.CacheDir, *queue)

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
	// Stop accepting connections first, then drain the job table, so no
	// new request races the closing admission queue.
	if err := httpSrv.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "gpuschedd: http shutdown: %v\n", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(stderr, "gpuschedd: drain incomplete: %v\n", err)
		return 1
	}
	st := svc.Stats()
	fmt.Fprintf(stdout, "gpuschedd: drained cleanly (%d simulated, %d memo hits, %d disk hits)\n",
		st.Simulated, st.MemoHits, st.DiskHits)
	return 0
}

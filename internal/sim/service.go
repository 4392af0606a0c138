package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"gpusched/internal/gpu"
)

// Options configures a Service.
type Options struct {
	// Workers bounds concurrent simulations (0 = GOMAXPROCS). Each
	// simulation's cycle loop is serial, so this pool is what uses the cores.
	Workers int
	// TickGranule is the per-SM parking threshold for the activity-set tick
	// (gpu.Config.Granule): 0 derives it from gpu.DefaultGranule. It is an
	// execution knob only — results are byte-identical for every value — so
	// it is deliberately NOT part of Request.Key: cached outcomes stay valid
	// across granule changes.
	TickGranule uint64
	// BatchWindow caps the quiet-window cycle batch (gpu.Config.BatchWindow):
	// 0 derives gpu.DefaultBatchWindow, 1 disables batching. Execution-only,
	// like TickGranule — never part of Request.Key.
	BatchWindow uint64
	// CacheDir, when non-empty, enables the on-disk result cache
	// (conventionally results/.simcache).
	CacheDir string
	// CacheEntries / CacheBytes bound the on-disk cache (0 = unbounded).
	// When a store pushes the directory over either budget, oldest-mtime
	// entries are evicted (counted in Stats.DiskEvictions) — a shared
	// cache tier must not grow forever.
	CacheEntries int
	CacheBytes   int64
	// PeerFetch, when non-nil, is consulted after a local disk miss and
	// before simulating: a fleet shard points it at its peers' cache
	// endpoints so a result that moved shards (ring change, failover) is
	// fetched once instead of resimulated. A fetched outcome is stored in
	// the local disk cache, migrating the entry to its new owner. The hook
	// must be best-effort: return ok=false on any doubt.
	PeerFetch func(ctx context.Context, key string) (Outcome, bool)
	// Progress, when non-nil, receives one line per completed simulation.
	// Writes are serialized by the Service, so the writer itself need not
	// be goroutine-safe and lines never interleave.
	Progress io.Writer
	// MaxFlights bounds the in-memory memo of completed outcomes
	// (0 = unbounded, the right choice for one-shot CLIs). When the memo
	// would exceed the cap, the oldest completed flights are evicted;
	// in-progress flights are never evicted, so singleflight deduplication
	// is unaffected. A configured disk cache still backstops re-runs of
	// evicted results. Long-lived daemons should set this.
	MaxFlights int
}

// Stats counts how a Service satisfied its requests.
type Stats struct {
	// Simulated counts actual simulator executions.
	Simulated int
	// MemoHits counts requests satisfied by (or coalesced into) an
	// earlier request with the same key.
	MemoHits int
	// DiskHits counts requests satisfied by the on-disk cache.
	DiskHits int
	// PeerHits counts requests satisfied by a fleet peer's cache via the
	// Options.PeerFetch hook (fetch-before-simulate).
	PeerHits int
	// DiskEvictions counts on-disk cache entries evicted by the
	// CacheEntries/CacheBytes budgets.
	DiskEvictions int
	// Evicted counts completed flights dropped from the memo by the
	// MaxFlights cap.
	Evicted int
	// WallSeconds is the cumulative wall-clock time spent inside the cycle
	// loop, and SimCycles the simulated cycles it produced. Their ratio is
	// the service's observed simulation throughput (cycles per second) —
	// the headline number the fast-forward work moves.
	WallSeconds float64
	SimCycles   uint64
}

// Service runs simulation requests. Identical requests are deduplicated via
// singleflight — N concurrent submissions of one key simulate once and
// share the outcome — and completed outcomes are memoized for the life of
// the Service (and on disk when a cache directory is configured).
type Service struct {
	opt   Options
	sem   chan struct{}
	cache *diskCache

	mu sync.Mutex
	//gpulint:guardedby mu
	flights map[string]*flight
	// done holds completed flight keys in completion order; it is the
	// eviction queue consulted when MaxFlights caps the memo.
	//gpulint:guardedby mu
	done []string
	//gpulint:guardedby mu
	stats Stats

	// progressMu serializes Options.Progress writes: simulations complete
	// on many worker goroutines at once.
	progressMu sync.Mutex
}

// flight is one in-progress or completed simulation.
type flight struct {
	ready chan struct{} // closed when out/err are final
	out   Outcome
	err   error
}

// NewService builds a Service.
func NewService(opt Options) *Service {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Service{
		opt:     opt,
		sem:     make(chan struct{}, workers),
		flights: make(map[string]*flight),
	}
	if opt.CacheDir != "" {
		s.cache = &diskCache{dir: opt.CacheDir, maxEntries: opt.CacheEntries, maxBytes: opt.CacheBytes}
	}
	return s
}

// CacheEntryBytes returns the raw on-disk cache entry for a content
// address (the hex sha256 of a canonical key, see CacheAddr), or false
// when no cache is configured, the address is malformed, or the entry is
// absent. It backs the peer-cache endpoint: the bytes are served verbatim
// and the fetching peer verifies them against its own key.
func (s *Service) CacheEntryBytes(addr string) ([]byte, bool) {
	if s.cache == nil {
		return nil, false
	}
	return s.cache.loadAddr(addr)
}

// Run executes (or recalls) one simulation. Errors are per-request: an
// unknown workload, a kernel that does not fit the machine, a timed-out
// run, or a canceled context fail this request without poisoning the
// Service. Cancellation errors are not memoized, so a later identical
// request runs afresh.
func (s *Service) Run(ctx context.Context, req Request) (Outcome, error) {
	key := req.Key()
	s.mu.Lock()
	f, hit := s.flights[key]
	if hit {
		s.stats.MemoHits++
	} else {
		f = &flight{ready: make(chan struct{})}
		s.flights[key] = f
	}
	s.mu.Unlock()
	if hit {
		select {
		case <-f.ready:
			return f.out, f.err
		case <-ctx.Done():
			return Outcome{}, ctx.Err()
		}
	}

	f.out, f.err = s.simulate(ctx, req, key)
	s.mu.Lock()
	if f.err != nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
		delete(s.flights, key)
	} else {
		s.done = append(s.done, key)
		s.evictLocked()
	}
	s.mu.Unlock()
	close(f.ready)
	return f.out, f.err
}

// evictLocked enforces Options.MaxFlights by dropping the oldest completed
// flights. In-progress flights are never in the done queue, so they are
// never evicted. Callers hold s.mu.
func (s *Service) evictLocked() {
	max := s.opt.MaxFlights
	if max <= 0 {
		return
	}
	for len(s.flights) > max && len(s.done) > 0 {
		key := s.done[0]
		s.done = s.done[1:]
		if _, ok := s.flights[key]; ok {
			delete(s.flights, key)
			s.stats.Evicted++
		}
	}
}

// RunAll submits every request concurrently (the worker pool bounds actual
// simulations), waits for completion, and returns every failure joined via
// errors.Join — a report over N requests names all the broken ones, not
// just the first. Use it to warm the memo before assembling a report.
func (s *Service) RunAll(ctx context.Context, reqs []Request) error {
	var wg sync.WaitGroup
	errs := make([]error, len(reqs)) // one slot per request: no lock needed
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			_, errs[i] = s.Run(ctx, req)
		}(i, req)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Stats returns a snapshot of the request counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// simulate is the cache-miss path: disk lookup, then a bounded simulator
// execution.
func (s *Service) simulate(ctx context.Context, req Request, key string) (Outcome, error) {
	if err := req.Validate(); err != nil {
		return Outcome{}, err
	}
	specs, err := req.kernels()
	if err != nil {
		return Outcome{}, err
	}
	if s.cache != nil {
		if out, ok := s.cache.load(key); ok {
			s.mu.Lock()
			s.stats.DiskHits++
			s.mu.Unlock()
			return out, nil
		}
	}
	// Local miss: ask the fleet peers before paying for a simulation. The
	// fetched entry is stored locally so the key's new owner serves the
	// next request from its own disk.
	if s.opt.PeerFetch != nil {
		if out, ok := s.opt.PeerFetch(ctx, key); ok {
			s.mu.Lock()
			s.stats.PeerHits++
			s.mu.Unlock()
			if s.cache != nil {
				s.recordEvictions(s.cache.store(key, out))
			}
			return out, nil
		}
	}

	// Bound concurrent simulations; give up the wait on cancellation.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		return Outcome{}, ctx.Err()
	}

	d := req.Sched.NewDispatcher()
	cfg := req.config()
	// Execution-only knobs: applied after the key-covered config is built,
	// so they can never leak into cache identity.
	cfg.Granule = s.opt.TickGranule
	cfg.BatchWindow = s.opt.BatchWindow
	g, err := gpu.New(cfg, d, specs...)
	if err != nil {
		return Outcome{}, fmt.Errorf("sim: %s: %w", key, err)
	}
	start := time.Now()
	raw, err := g.RunContext(ctx)
	elapsed := time.Since(start)
	s.mu.Lock()
	s.stats.WallSeconds += elapsed.Seconds()
	s.stats.SimCycles += raw.Cycles
	s.mu.Unlock()
	if err != nil {
		return Outcome{}, fmt.Errorf("sim: %s: %w", key, err)
	}
	s.mu.Lock()
	s.stats.Simulated++
	s.mu.Unlock()
	if raw.TimedOut {
		return Outcome{}, fmt.Errorf("sim: %s timed out after %d cycles", key, raw.Cycles)
	}
	out := Outcome{Result: raw}
	if limits, ok := req.Sched.Limits(d); ok {
		out.Limits = append([]int(nil), limits...)
	}
	if s.opt.Progress != nil {
		s.progressMu.Lock()
		fmt.Fprintf(s.opt.Progress, "ran %-40s %10d cycles\n", key, raw.Cycles)
		s.progressMu.Unlock()
	}
	if s.cache != nil {
		s.recordEvictions(s.cache.store(key, out))
	}
	return out, nil
}

// recordEvictions folds a store's eviction count into the stats.
func (s *Service) recordEvictions(n int) {
	if n == 0 {
		return
	}
	s.mu.Lock()
	s.stats.DiskEvictions += n
	s.mu.Unlock()
}

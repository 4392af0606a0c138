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
	// Reused counts the simulations among them built in the arrays of a
	// finished machine (see machines) rather than in new memory.
	Reused int
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

// Add sums o into s, field by field: a fleet's stats are its shards' sum.
func (s *Stats) Add(o Stats) {
	s.Simulated += o.Simulated
	s.Reused += o.Reused
	s.MemoHits += o.MemoHits
	s.DiskHits += o.DiskHits
	s.PeerHits += o.PeerHits
	s.DiskEvictions += o.DiskEvictions
	s.Evicted += o.Evicted
	s.WallSeconds += o.WallSeconds
	s.SimCycles += o.SimCycles
}

// Sub takes o from s, field by field: the counts between two snapshots.
func (s *Stats) Sub(o Stats) {
	s.Simulated -= o.Simulated
	s.Reused -= o.Reused
	s.MemoHits -= o.MemoHits
	s.DiskHits -= o.DiskHits
	s.PeerHits -= o.PeerHits
	s.DiskEvictions -= o.DiskEvictions
	s.Evicted -= o.Evicted
	s.WallSeconds -= o.WallSeconds
	s.SimCycles -= o.SimCycles
}

// Hits counts the requests answered without a simulation: memo, disk and
// peer hits.
func (s Stats) Hits() int { return s.MemoHits + s.DiskHits + s.PeerHits }

// DedupRate is hits / (hits + simulated), the share of requests answered
// without paying for a simulation (0 when there were none).
func DedupRate(hits, simulated int) float64 {
	if hits+simulated == 0 {
		return 0
	}
	return float64(hits) / float64(hits+simulated)
}

// machines holds finished machines for the next simulation to be built in
// (gpu.Renew): tag stores, MSHR files, queues and CTA and warp contexts make
// up most of what a short simulation allocates. It is shared by every
// Service in the process, and the garbage collector empties it when the
// process stops simulating.
var machines sync.Pool

// Service runs simulation requests. Identical requests are deduplicated via
// singleflight — N concurrent submissions of one key simulate once and
// share the outcome — and completed outcomes are memoized for the life of
// the Service (and on disk when a cache directory is configured).
type Service struct {
	opt   Options
	sem   chan struct{}
	cache *diskCache

	// mu guards flights, done and stats.
	mu      sync.Mutex
	flights map[string]*flight
	// done holds completed flight keys in completion order; it is the
	// eviction queue consulted when MaxFlights caps the memo.
	done  []string
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
// request runs afresh; nor is a simulation that panicked: its waiters get
// an error, the key is forgotten, and the panic goes on up Run's caller.
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

	var st Stats
	f.err = errAbandoned // what waiters see if simulate panics
	defer func() {
		s.mu.Lock()
		s.stats.Add(st)
		if errors.Is(f.err, errAbandoned) || errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
			delete(s.flights, key)
		} else {
			s.done = append(s.done, key)
			s.evictLocked()
		}
		s.mu.Unlock()
		close(f.ready)
	}()
	f.out, st, f.err = s.simulate(ctx, req, key)
	return f.out, f.err
}

// errAbandoned fails the waiters of a flight whose simulation panicked.
var errAbandoned = errors.New("sim: simulation panicked")

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

// simulate is the cache-miss path: disk lookup, peer fetch, then a bounded
// simulator execution. st is what it adds to the Service's counters; Run
// adds it when it settles the flight.
func (s *Service) simulate(ctx context.Context, req Request, key string) (out Outcome, st Stats, err error) {
	if err := req.Validate(); err != nil {
		return Outcome{}, st, fmt.Errorf("sim: %s: %w", key, err)
	}
	if s.cache != nil {
		if out, ok := s.cache.load(key); ok {
			st.DiskHits = 1
			return out, st, nil
		}
	}
	// Local miss: ask the fleet peers before paying for a simulation. The
	// fetched entry is stored locally so the key's new owner serves the
	// next request from its own disk.
	if s.opt.PeerFetch != nil {
		if out, ok := s.opt.PeerFetch(ctx, key); ok {
			st.PeerHits = 1
			if s.cache != nil {
				st.DiskEvictions = s.cache.store(key, out)
			}
			return out, st, nil
		}
	}

	// Bound concurrent simulations; give up the wait on cancellation.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		return Outcome{}, st, ctx.Err()
	}

	prev, _ := machines.Get().(*gpu.GPU)
	m, err := req.Build(prev)
	if err != nil {
		if prev != nil {
			machines.Put(prev) // gpu.Renew leaves prev untouched on error
		}
		return Outcome{}, st, fmt.Errorf("sim: %s: %w", key, err)
	}
	start := time.Now()
	raw, err := m.RunContext(ctx)
	st.WallSeconds = time.Since(start).Seconds()
	st.SimCycles = raw.Cycles
	// Neither the Result nor the dispatcher's limits refer into the machine,
	// so the next simulation may be built in it however this run ended. A
	// run that panicked does not get here and leaves the pool alone.
	machines.Put(m.GPU)
	if err != nil {
		return Outcome{}, st, fmt.Errorf("sim: %s: %w", key, err)
	}
	st.Simulated = 1
	if prev != nil {
		st.Reused = 1
	}
	out, err = m.finish(key, raw)
	if err != nil {
		return Outcome{}, st, err
	}
	if s.opt.Progress != nil {
		s.progressMu.Lock()
		fmt.Fprintf(s.opt.Progress, "ran %-40s %10d cycles\n", key, raw.Cycles)
		s.progressMu.Unlock()
	}
	if s.cache != nil {
		st.DiskEvictions = s.cache.store(key, out)
	}
	return out, st, nil
}

// Reference is the request-level oracle: req simulated on the reference
// cycle loop (gpu.GPU.RunReference), with no cache, memo, worker pool or
// machine reuse in the way. It shares Build and the outcome step with
// Service, so the two differ only in which loop they call and in Service's
// machine being a renewed one.
func Reference(ctx context.Context, req Request) (Outcome, error) {
	m, err := req.Build(nil)
	if err != nil {
		return Outcome{}, err
	}
	raw, err := m.RunReference(ctx)
	if err != nil {
		return Outcome{}, err
	}
	return m.finish(req.Key(), raw)
}

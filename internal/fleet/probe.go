package fleet

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// Prober drives the ring's health state: every interval it probes each
// shard's /readyz in parallel and feeds the verdicts into the shard's
// failure streak. A shard is marked down after failAfter consecutive
// failures (readiness 503s count — a draining or saturated shard should
// stop receiving new work) and marked up again on the first success.
type Prober struct {
	ring     *Ring
	interval time.Duration
	client   *http.Client
	onChange func(s *Shard, up bool) // optional health-transition hook

	// ctx is the prober's lifecycle context: every probe request carries
	// it, so Stop cancels in-flight probes instead of waiting out the
	// client timeout against a black-holed host.
	ctx    context.Context
	cancel context.CancelFunc

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewProber builds a prober over ring. interval is the probe period
// (0 = 1s); each probe may take half of it. onChange (optional) observes
// health transitions.
func NewProber(ring *Ring, interval time.Duration, onChange func(*Shard, bool)) *Prober {
	if interval <= 0 {
		interval = time.Second
	}
	//gpulint:allow ctxflow the prober lives as long as its router, not any request; Stop cancels it
	ctx, cancel := context.WithCancel(context.Background())
	return &Prober{
		ring:     ring,
		interval: interval,
		client:   &http.Client{Timeout: interval / 2},
		onChange: onChange,
		ctx:      ctx,
		cancel:   cancel,
		stop:     make(chan struct{}),
	}
}

// Start launches the probe loop. An immediate first round runs before the
// ticker settles in, so a router fronting a dead shard marks it down
// within failAfter×interval of boot, not one interval later.
func (p *Prober) Start() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(p.interval)
		defer t.Stop()
		p.probeAll()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.probeAll()
			}
		}
	}()
}

// Stop halts the loop, cancels in-flight probes, and waits for them to
// finish. It returns promptly even when a probed host is black-holed: the
// lifecycle context aborts the HTTP round trip.
func (p *Prober) Stop() {
	p.once.Do(func() {
		p.cancel()
		close(p.stop)
	})
	p.wg.Wait()
}

// probeAll probes every shard concurrently so one black-holed host can't
// delay detection on the others past the per-probe timeout.
func (p *Prober) probeAll() {
	var wg sync.WaitGroup
	for _, s := range p.ring.Shards() {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			p.probe(s)
		}(s)
	}
	wg.Wait()
}

func (p *Prober) probe(s *Shard) {
	req, err := http.NewRequestWithContext(p.ctx, http.MethodGet, s.URL+"/readyz", nil)
	if err != nil {
		// A malformed shard URL never round-trips; count it as a failure so
		// the shard is marked down instead of silently skipped.
		if s.noteFailure("probe: "+err.Error()) && p.onChange != nil {
			p.onChange(s, false)
		}
		return
	}
	resp, err := p.client.Do(req)
	switch {
	case err != nil:
		if p.ctx.Err() != nil {
			return // shutting down: not a health signal
		}
		if s.noteFailure("probe: "+err.Error()) && p.onChange != nil {
			p.onChange(s, false)
		}
	case resp.StatusCode != http.StatusOK:
		resp.Body.Close()
		if s.noteFailure("probe: readyz "+resp.Status) && p.onChange != nil {
			p.onChange(s, false)
		}
	default:
		resp.Body.Close()
		if s.noteSuccess() && p.onChange != nil {
			p.onChange(s, true)
		}
	}
}

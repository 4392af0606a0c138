package mem

import "gpusched/internal/stats"

// routedResponse is a Response plus its destination core, buffered inside a
// partition until the return network accepts it.
type routedResponse struct {
	resp  Response
	core  int
	ready uint64
}

// L2Partition is one slice of the shared L2 plus its DRAM channel. It
// accepts requests from the interconnect at one lookup per cycle, services
// hits after L2Latency, tracks misses in an MSHR file, and spills/fills
// through its channel. Dirty evictions become DRAM write-backs.
type L2Partition struct {
	cfg   *Config
	id    int
	cache *Cache
	mshr  *MSHR
	dram  *DRAMChannel

	// out holds responses ordered by ready time, waiting for the return
	// network.
	out []routedResponse
	// wbBuf holds dirty evictions waiting for DRAM queue space.
	wbBuf []Request
	// lookupFreeAt models the tag-pipeline occupancy for atomics.
	lookupFreeAt uint64
	// inflight, when bound, is the owning System's in-flight request count;
	// the partition adjusts it where requests are absorbed (store hits) or
	// spawned (dirty write-backs). Nil for standalone partitions (tests).
	inflight *int

	Stats stats.Cache
}

// bindInflight attaches the System's in-flight counter to the partition and
// its DRAM channel.
func (p *L2Partition) bindInflight(ctr *int) {
	p.inflight = ctr
	p.dram.inflight = ctr
}

// NewL2Partition builds partition id.
func NewL2Partition(cfg *Config, id int) *L2Partition {
	p := &L2Partition{
		cfg:   cfg,
		id:    id,
		cache: NewCache(cfg.L2BytesPerPartition, cfg.LineBytes, cfg.L2Ways),
		mshr:  NewMSHR(cfg.L2MSHREntries, cfg.L2MSHRMerges),
	}
	p.dram = NewDRAMChannel(cfg, p.onDRAMComplete)
	return p
}

// DRAMStats exposes the channel counters.
func (p *L2Partition) DRAMStats() *stats.DRAM { return &p.dram.Stats }

// onDRAMComplete fills the cache from a finished DRAM read and releases the
// MSHR waiters.
func (p *L2Partition) onDRAMComplete(req Request, now uint64) {
	// An atomic among the waiters dirties the line, and its response must not
	// fill the requester's L1.
	dirty := p.mshr.Atomic(req.LineAddr)
	ev := p.cache.Fill(req.LineAddr, dirty)
	if ev.Valid {
		p.Stats.Evictions++
		if ev.Dirty {
			p.Stats.WriteBacks++
			p.wbBuf = append(p.wbBuf, Request{Kind: reqWriteBack, LineAddr: ev.LineAddr, Born: now})
			if p.inflight != nil {
				*p.inflight++
			}
		}
	}
	for _, tok := range p.mshr.Complete(req.LineAddr) {
		// Waiters were stamped with their core in the token's upper bits
		// by pendingKey; unpack.
		core, t := unpackWaiter(tok)
		p.pushResponse(routedResponse{
			resp:  Response{LineAddr: req.LineAddr, Token: t, Atomic: dirty},
			core:  core,
			ready: now, // DRAM latency already paid; fill forwarding is free
		})
	}
}

// packWaiter folds (core, token) into the 32-bit MSHR token space. Cores
// are < 2^8; core-side tokens < 2^24 (the SM pending table is far smaller).
func packWaiter(core int, token uint32) uint32 {
	return uint32(core)<<24 | (token & 0xFFFFFF)
}

func unpackWaiter(w uint32) (core int, token uint32) {
	return int(w >> 24), w & 0xFFFFFF
}

func (p *L2Partition) pushResponse(r routedResponse) {
	i := len(p.out)
	for i > 0 && p.out[i-1].ready > r.ready {
		i--
	}
	p.out = append(p.out, routedResponse{})
	copy(p.out[i+1:], p.out[i:])
	p.out[i] = r
}

// Tick advances the partition one cycle. in is the interconnect queue
// feeding it; deliver pushes a ready response into the return network and
// reports acceptance.
func (p *L2Partition) Tick(now uint64, in *pipe[Request], deliver func(core int, resp Response) bool) {
	// 1. Drain ready responses into the return network.
	for len(p.out) > 0 && p.out[0].ready <= now {
		if !deliver(p.out[0].core, p.out[0].resp) {
			break
		}
		copy(p.out, p.out[1:])
		p.out = p.out[:len(p.out)-1]
	}

	// 2. Retry buffered write-backs.
	for len(p.wbBuf) > 0 && p.dram.CanAccept() {
		p.dram.Enqueue(p.wbBuf[0], now)
		copy(p.wbBuf, p.wbBuf[1:])
		p.wbBuf = p.wbBuf[:len(p.wbBuf)-1]
	}

	// 3. Advance the DRAM channel (may call onDRAMComplete).
	p.dram.Tick(now)

	// 4. Accept at most one request from the interconnect.
	if !in.CanPop(now) || p.lookupFreeAt > now {
		return
	}
	req := in.Peek()
	if p.handle(req, now) {
		in.Pop()
	}
}

// handle processes one request; it returns false when the request must stay
// queued (a structural stall).
func (p *L2Partition) handle(req Request, now uint64) bool {
	switch req.Kind {
	case ReqLoad:
		return p.handleLoad(req, now, false)
	case ReqAtomic:
		return p.handleLoad(req, now, true)
	case ReqStore:
		p.Stats.Accesses++
		if p.cache.Lookup(req.LineAddr, true) {
			p.Stats.Hits++
			// The store is absorbed by the L2: it leaves the hierarchy here.
			if p.inflight != nil {
				*p.inflight--
			}
			return true
		}
		p.Stats.Misses++
		// No-write-allocate: forward the write to DRAM.
		if !p.dram.CanAccept() {
			return false
		}
		p.dram.Enqueue(req, now)
		return true
	default:
		// Write-backs never arrive from the interconnect.
		return true
	}
}

func (p *L2Partition) handleLoad(req Request, now uint64, atomic bool) bool {
	waiter := packWaiter(req.CoreID, req.Token)
	if p.mshr.Pending(req.LineAddr) {
		if !p.mshr.Merge(req.LineAddr, waiter) {
			p.Stats.MSHRStalls++
			return false
		}
		p.Stats.Accesses++
		p.Stats.Misses++
		p.Stats.MSHRMerges++
		if atomic {
			p.mshr.MarkAtomic(req.LineAddr)
		}
		return true
	}
	p.Stats.Accesses++
	if p.cache.Lookup(req.LineAddr, atomic) {
		p.Stats.Hits++
		lat := p.cfg.L2Latency
		if atomic {
			lat += p.cfg.L2AtomicLatency
			// RMW holds the tag/data pipeline longer.
			p.lookupFreeAt = now + p.cfg.L2AtomicLatency
		}
		p.pushResponse(routedResponse{
			resp:  Response{LineAddr: req.LineAddr, Token: req.Token, Atomic: atomic},
			core:  req.CoreID,
			ready: now + lat,
		})
		return true
	}
	p.Stats.Misses++
	if p.mshr.Full() || !p.dram.CanAccept() {
		if p.mshr.Full() {
			p.Stats.MSHRStalls++
		}
		return false
	}
	if !p.mshr.Allocate(req.LineAddr, waiter) {
		return false
	}
	if atomic {
		p.mshr.MarkAtomic(req.LineAddr)
	}
	p.dram.Enqueue(Request{Kind: ReqLoad, LineAddr: req.LineAddr, Born: now}, now)
	return true
}

// Drained reports whether the partition holds no in-flight work.
func (p *L2Partition) Drained() bool {
	return len(p.out) == 0 && len(p.wbBuf) == 0 && p.mshr.Used() == 0 && p.dram.Drained()
}

// NextEvent returns the earliest cycle >= now at which Tick(in) does work.
// Each of the partition's per-cycle actions has a known wake time: the
// response buffer is sorted by ready time; buffered write-backs retry the
// moment DRAM has queue space; the DRAM channel reports its own bound; and
// a ripe interconnect request is handled (mutating counters even when it
// structurally stalls) as soon as the tag pipeline is free.
func (p *L2Partition) NextEvent(now uint64, in *pipe[Request]) uint64 {
	next := uint64(NeverEvent)
	if len(p.out) > 0 {
		if p.out[0].ready <= now {
			return now
		}
		next = p.out[0].ready
	}
	if len(p.wbBuf) > 0 && p.dram.CanAccept() {
		return now
	}
	if ev := p.dram.NextEvent(now); ev < next {
		next = ev
	}
	if next <= now {
		return now
	}
	if in.Len() > 0 {
		at := max64(in.NextReady(), p.lookupFreeAt)
		if at <= now {
			return now
		}
		if at < next {
			next = at
		}
	}
	return next
}

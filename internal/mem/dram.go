package mem

import "gpusched/internal/stats"

// dramReq is a queued DRAM transaction.
type dramReq struct {
	req     Request
	arrived uint64
}

// dramKey is a queued transaction's bank and row. The mapping is fixed by
// the line address, so it is computed once at enqueue, and it is kept apart
// from the request so the FR-FCFS scan reads 16 bytes per entry, not 64.
type dramKey struct {
	row  uint64
	bank int
}

// DRAMChannel models one GDDR channel: a bounded request queue scheduled
// FR-FCFS (row hits first, then oldest), per-bank open-row state, and a
// shared data bus occupied tBurst cycles per line. Reads complete with a
// callback; writes (stores and L2 write-backs) complete silently.
type DRAMChannel struct {
	cfg   *Config
	queue []dramReq
	keys  []dramKey // keys[i] belongs to queue[i]
	banks []dramBank
	// Cached address-mapping constants (hot path).
	lineShift   uint
	linesPerRow uint64
	// busFreeAt is when the data bus can start the next transfer.
	busFreeAt uint64
	// nextSchedAt is the earliest cycle a queued request's bank is free
	// (NeverEvent when the queue is empty): the first cycle the FR-FCFS scan
	// can pick anything. Bank free times move only when a request is
	// scheduled, so keeping it exact takes a min at Enqueue and one pass over
	// the queue per pick; Tick scans only when it is due, and every scan
	// picks.
	nextSchedAt uint64
	// onComplete receives finished read requests (loads/atomics).
	onComplete func(req Request, now uint64)
	// completions holds in-flight transfers ordered by finish time.
	completions []dramCompletion
	// inflight, when bound, is the owning System's in-flight request count;
	// a write leaves the hierarchy the cycle its burst is scheduled, so the
	// channel decrements it there. Nil for standalone channels (tests).
	inflight *int

	Stats stats.DRAM
}

type dramBank struct {
	openRow  uint64
	rowValid bool
	// freeAt is when the bank can accept its next activation/column op.
	freeAt uint64
}

type dramCompletion struct {
	at  uint64
	req Request
}

// NewDRAMChannel builds a channel with the config's timing. onComplete is
// invoked for each finished read in completion-time order.
func NewDRAMChannel(cfg *Config, onComplete func(req Request, now uint64)) *DRAMChannel {
	return &DRAMChannel{
		cfg:         cfg,
		banks:       make([]dramBank, cfg.DRAMBanks),
		queue:       make([]dramReq, 0, cfg.DRAMQueueCap),
		keys:        make([]dramKey, 0, cfg.DRAMQueueCap),
		onComplete:  onComplete,
		nextSchedAt: NeverEvent,
		lineShift:   cfg.LineShift(),
		linesPerRow: uint64(cfg.DRAMRowBytes / cfg.LineBytes),
	}
}

// CanAccept reports whether the request queue has space.
func (d *DRAMChannel) CanAccept() bool { return len(d.queue) < d.cfg.DRAMQueueCap }

// Enqueue adds a request; the caller must have checked CanAccept.
func (d *DRAMChannel) Enqueue(req Request, now uint64) {
	if !d.CanAccept() {
		panic("mem: DRAM enqueue past capacity")
	}
	bank, row := d.bankAndRow(req.LineAddr)
	d.queue = append(d.queue, dramReq{req: req, arrived: now})
	d.keys = append(d.keys, dramKey{row: row, bank: bank})
	d.nextSchedAt = min(d.nextSchedAt, d.banks[bank].freeAt)
}

// QueueLen returns the number of waiting (unscheduled) requests.
func (d *DRAMChannel) QueueLen() int { return len(d.queue) }

// bankAndRow maps a line address to its bank index and row id within the
// channel. Lines are already channel-interleaved by PartitionOf, so the
// per-channel line index is lineAddr/(lineBytes*partitions); consecutive
// in-channel lines fall in the same row until the row is exhausted, then
// move to the next bank — the standard row-interleaved mapping that rewards
// spatial locality with row hits.
func (d *DRAMChannel) bankAndRow(lineAddr uint64) (bank int, row uint64) {
	chLine := (lineAddr >> d.lineShift) / uint64(d.cfg.Partitions)
	rowGlobal := chLine / d.linesPerRow
	bank = int(rowGlobal % uint64(d.cfg.DRAMBanks))
	row = rowGlobal / uint64(d.cfg.DRAMBanks)
	return bank, row
}

// Tick advances the channel one cycle: it delivers finished transfers, then
// schedules at most one queued request (FR-FCFS: oldest row hit whose bank
// is free, else oldest request whose bank is free).
func (d *DRAMChannel) Tick(now uint64) {
	for len(d.completions) > 0 && d.completions[0].at <= now {
		c := d.completions[0]
		copy(d.completions, d.completions[1:])
		d.completions = d.completions[:len(d.completions)-1]
		if d.onComplete != nil {
			d.onComplete(c.req, now)
		}
	}

	if now < d.nextSchedAt {
		return
	}
	pick := -1
	pickHit := false
	for i, k := range d.keys {
		b := &d.banks[k.bank]
		if b.freeAt > now {
			continue
		}
		hit := b.rowValid && b.openRow == k.row
		if d.cfg.DRAMSchedFCFS {
			// Strict arrival order: take the oldest serviceable request.
			pick, pickHit = i, hit
			break
		}
		if hit {
			pick = i
			pickHit = true
			break // queue is in arrival order: first row hit is oldest row hit
		}
		if pick == -1 {
			pick = i
		}
	}
	qr, k := d.queue[pick], d.keys[pick]
	copy(d.queue[pick:], d.queue[pick+1:])
	d.queue = d.queue[:len(d.queue)-1]
	copy(d.keys[pick:], d.keys[pick+1:])
	d.keys = d.keys[:len(d.keys)-1]

	b := &d.banks[k.bank]
	act := uint64(0)
	if pickHit {
		d.Stats.RowHits++
	} else {
		d.Stats.RowMisses++
		act = d.cfg.DRAMtRowExtra
	}
	b.openRow = k.row
	b.rowValid = true

	// The column access begins after any activation; the burst begins when
	// both the column data is ready and the bus is free.
	colReady := now + act + d.cfg.DRAMtCAS
	busStart := max(colReady, d.busFreeAt)
	busEnd := busStart + d.cfg.DRAMtBurst
	d.busFreeAt = busEnd
	b.freeAt = busEnd // simplification: bank busy until its burst drains
	d.Stats.BusyCycles += d.cfg.DRAMtBurst
	d.Stats.QueueLatencySum += now - qr.arrived
	d.Stats.ServicedRequests++

	d.nextSchedAt = NeverEvent
	for _, k := range d.keys {
		d.nextSchedAt = min(d.nextSchedAt, d.banks[k.bank].freeAt)
	}

	switch qr.req.Kind {
	case ReqStore, reqWriteBack:
		d.Stats.Writes++
		// Writes complete silently once the burst drains.
		if d.inflight != nil {
			*d.inflight--
		}
	default:
		d.Stats.Reads++
		// Every burst ends after the one before it (busStart >= busFreeAt),
		// so appending keeps completions in finish-time order.
		// At most one read per bank is in flight (its bank stays busy until
		// the completion is delivered), so the backing array stops growing
		// at DRAMBanks entries.
		d.completions = append(d.completions, dramCompletion{at: busEnd, req: qr.req})
	}
}

// Drained reports whether no requests are queued or in flight.
func (d *DRAMChannel) Drained() bool {
	return len(d.queue) == 0 && len(d.completions) == 0
}

// NextEvent returns the earliest cycle >= now at which Tick does work: the
// head completion delivers (completions are in finish-time order), or a
// queued request's bank frees so the FR-FCFS scan can schedule it.
func (d *DRAMChannel) NextEvent(now uint64) uint64 {
	next := d.nextSchedAt
	if len(d.completions) > 0 {
		next = min(next, d.completions[0].at)
	}
	return max(next, now)
}

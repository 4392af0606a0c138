package mem

import (
	"testing"
)

// harness drives a System as a single fake core.
type harness struct {
	t   *testing.T
	cfg *Config
	sys *System
	l1  *L1
	now uint64
}

func newHarness(t *testing.T, mut func(*Config)) *harness {
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	sys := NewSystem(&cfg, 1)
	return &harness{
		t:   t,
		cfg: &cfg,
		sys: sys,
		l1:  NewL1(&cfg, 0, sys.Port(0)),
	}
}

// step advances one cycle and returns any response delivered this cycle.
func (h *harness) step() (Response, bool) {
	h.sys.Tick(h.now)
	resp, ok := h.sys.PopResponse(0, h.now)
	h.now++
	return resp, ok
}

// waitResponse runs until a response arrives or the deadline passes.
func (h *harness) waitResponse(deadline uint64) (Response, uint64) {
	for h.now < deadline {
		if resp, ok := h.step(); ok {
			return resp, h.now - 1
		}
	}
	h.t.Fatalf("no response by cycle %d", deadline)
	return Response{}, 0
}

func TestLoadMissRoundTrip(t *testing.T) {
	h := newHarness(t, nil)
	if res := h.l1.Load(0, 42, h.now); res != AccessPending {
		t.Fatalf("cold load = %v, want pending", res)
	}
	resp, at := h.waitResponse(2000)
	if resp.Token != 42 || resp.LineAddr != 0 {
		t.Fatalf("response = %+v", resp)
	}
	// Round trip must include xbar both ways plus DRAM service.
	wantMin := 2*h.cfg.XbarLatency + h.cfg.DRAMtCAS + h.cfg.DRAMtBurst
	if at < wantMin {
		t.Fatalf("round trip %d cycles, want >= %d", at, wantMin)
	}
	toks := h.l1.OnResponse(resp, false)
	if len(toks) != 1 || toks[0] != 42 {
		t.Fatalf("OnResponse tokens = %v", toks)
	}
	if !h.l1.Contains(0) {
		t.Fatal("L1 not filled by response")
	}
	// Second access now hits.
	if res := h.l1.Load(0, 43, h.now); res != AccessHit {
		t.Fatalf("warm load = %v, want hit", res)
	}
	if !h.sys.Drained() {
		t.Fatal("system not drained")
	}
}

func TestL1MergeSingleRequest(t *testing.T) {
	h := newHarness(t, nil)
	if res := h.l1.Load(0, 1, h.now); res != AccessPending {
		t.Fatal("primary miss not pending")
	}
	if res := h.l1.Load(0, 2, h.now); res != AccessPending {
		t.Fatal("secondary miss not merged")
	}
	resp, _ := h.waitResponse(2000)
	toks := h.l1.OnResponse(resp, false)
	if len(toks) != 2 {
		t.Fatalf("merged tokens = %v, want two", toks)
	}
	// Exactly one DRAM read happened.
	d := h.sys.DRAMStats()
	if d.Reads != 1 {
		t.Fatalf("DRAM reads = %d, want 1 (merge failed)", d.Reads)
	}
}

func TestL2HitFasterThanDRAM(t *testing.T) {
	h := newHarness(t, nil)
	h.l1.Load(0, 1, h.now)
	resp, coldAt := h.waitResponse(2000)
	h.l1.OnResponse(resp, false)
	// Evict from L1 only: load many distinct lines mapping to the same L1
	// set but different L2 sets... simpler: invalidate L1 by constructing a
	// fresh one sharing the same system (the L2 retains the line).
	h.l1 = NewL1(h.cfg, 0, h.sys.Port(0))
	start := h.now
	h.l1.Load(0, 2, h.now)
	_, warmAt := h.waitResponse(h.now + 2000)
	warm := warmAt - start
	if warm >= coldAt {
		t.Fatalf("L2 hit took %d cycles, cold miss took %d", warm, coldAt)
	}
	l2 := h.sys.L2Stats()
	if l2.Hits != 1 {
		t.Fatalf("L2 stats = %+v, want one hit", l2)
	}
}

func TestStoreReachesDRAMOnL2Miss(t *testing.T) {
	h := newHarness(t, nil)
	if res := h.l1.Store(0, h.now); res != AccessPending {
		t.Fatalf("store = %v", res)
	}
	for i := 0; i < 500; i++ {
		h.step()
	}
	d := h.sys.DRAMStats()
	if d.Writes != 1 {
		t.Fatalf("DRAM writes = %d, want 1 (no-allocate store miss)", d.Writes)
	}
	if !h.sys.Drained() {
		t.Fatal("store left system undrained")
	}
}

func TestStoreHitsInL2(t *testing.T) {
	h := newHarness(t, nil)
	// Warm the line into L2 via a load.
	h.l1.Load(0, 1, h.now)
	resp, _ := h.waitResponse(2000)
	h.l1.OnResponse(resp, false)
	before := h.sys.DRAMStats().Writes
	h.l1.Store(0, h.now)
	for i := 0; i < 500; i++ {
		h.step()
	}
	d := h.sys.DRAMStats()
	if d.Writes != before {
		t.Fatalf("store hit still wrote DRAM (%d -> %d writes)", before, d.Writes)
	}
	l2 := h.sys.L2Stats()
	if l2.Hits == 0 {
		t.Fatal("store did not hit in L2")
	}
}

func TestAtomicRoundTripBypassesL1(t *testing.T) {
	h := newHarness(t, nil)
	if res := h.l1.Atomic(0, 9, h.now); res != AccessPending {
		t.Fatalf("atomic = %v", res)
	}
	resp, _ := h.waitResponse(2000)
	toks := h.l1.OnResponse(resp, true)
	if len(toks) != 1 || toks[0] != 9 {
		t.Fatalf("atomic tokens = %v", toks)
	}
	if h.l1.Contains(0) {
		t.Fatal("atomic filled L1")
	}
	// Atomics dirty the L2 line: spill it and expect a write-back.
	// (White-box check via partition stats after flush is indirect; just
	// verify the L2 holds it dirty by checking a subsequent store-hit.)
	l2 := h.sys.L2Stats()
	if l2.Accesses == 0 {
		t.Fatal("atomic never reached L2")
	}
}

func TestResponseTokenRoutingManyLoads(t *testing.T) {
	h := newHarness(t, nil)
	const n = 16
	issued := 0
	got := map[uint32]bool{}
	for h.now < 5000 && len(got) < n {
		if issued < n {
			res := h.l1.Load(uint64(issued*h.cfg.LineBytes), uint32(issued), h.now)
			if res == AccessPending {
				issued++
			} else if res == AccessHit {
				t.Fatalf("unexpected hit on cold line %d", issued)
			}
		}
		if resp, ok := h.step(); ok {
			for _, tok := range h.l1.OnResponse(resp, false) {
				if got[tok] {
					t.Fatalf("token %d delivered twice", tok)
				}
				got[tok] = true
			}
		}
	}
	if len(got) != n {
		t.Fatalf("received %d/%d responses", len(got), n)
	}
	if !h.sys.Drained() {
		t.Fatal("system not drained after all responses")
	}
}

func TestBackpressureStallsNotDrops(t *testing.T) {
	// Tiny queues everywhere: hammer one partition and verify every issued
	// load still completes exactly once.
	h := newHarness(t, func(c *Config) {
		c.XbarQueueCap = 2
		c.DRAMQueueCap = 2
		c.L2MSHREntries = 2
		c.L1MSHREntries = 4
		c.L1MissQueueCap = 2
	})
	const n = 32
	issued, completed := 0, 0
	stalls := 0
	for h.now < 50000 && completed < n {
		if issued < n {
			// All lines map to partition 0 (stride = partitions*line).
			addr := uint64(issued) * uint64(h.cfg.Partitions*h.cfg.LineBytes)
			switch h.l1.Load(addr, uint32(issued), h.now) {
			case AccessPending:
				issued++
			case AccessStall:
				stalls++
			case AccessHit:
				t.Fatalf("cold line %d hit", issued)
			}
		}
		if resp, ok := h.step(); ok {
			completed += len(h.l1.OnResponse(resp, false))
		}
	}
	if completed != n {
		t.Fatalf("completed %d/%d under backpressure", completed, n)
	}
	if stalls == 0 {
		t.Fatal("expected structural stalls with tiny queues")
	}
	if !h.sys.Drained() {
		t.Fatal("undrained after backpressure test")
	}
}

func TestL1MSHRStallWhenFull(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.L1MSHREntries = 2
	})
	if h.l1.Load(0, 1, h.now) != AccessPending {
		t.Fatal("load 1")
	}
	if h.l1.Load(uint64(h.cfg.LineBytes), 2, h.now) != AccessPending {
		t.Fatal("load 2")
	}
	if res := h.l1.Load(uint64(2*h.cfg.LineBytes), 3, h.now); res != AccessStall {
		t.Fatalf("third distinct miss = %v, want stall (MSHR full)", res)
	}
	if h.l1.CacheStats().MSHRStalls == 0 {
		t.Fatal("MSHR stall not counted")
	}
}

func TestL1MergeCapStall(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.L1MSHRMerges = 2
	})
	h.l1.Load(0, 1, h.now)
	if h.l1.Load(0, 2, h.now) != AccessPending {
		t.Fatal("first merge rejected")
	}
	if res := h.l1.Load(0, 3, h.now); res != AccessStall {
		t.Fatalf("merge past cap = %v, want stall", res)
	}
}

func TestDirtyL2EvictionWritesBack(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.Partitions = 1
		c.L2BytesPerPartition = 2 * 128 // 1 set... need pow2 sets: 2 lines, 2 ways -> 1 set
		c.L2Ways = 2
	})
	// Dirty line 0 in L2 via atomic.
	h.l1.Atomic(0, 1, h.now)
	resp, _ := h.waitResponse(3000)
	h.l1.OnResponse(resp, true)
	// Displace it with two more distinct lines (fills via loads).
	for i := 1; i <= 2; i++ {
		for h.l1.Load(uint64(i*128), uint32(10+i), h.now) == AccessStall {
			h.step()
		}
		r, _ := h.waitResponse(h.now + 3000)
		h.l1.OnResponse(r, false)
	}
	for i := 0; i < 1000; i++ {
		h.step()
	}
	d := h.sys.DRAMStats()
	if d.Writes == 0 {
		t.Fatal("dirty eviction never wrote back to DRAM")
	}
	l2 := h.sys.L2Stats()
	if l2.WriteBacks == 0 || l2.Evictions == 0 {
		t.Fatalf("L2 stats = %+v, want evictions and writebacks", l2)
	}
}

func TestPackWaiterRoundTrip(t *testing.T) {
	for _, c := range []int{0, 1, 14, 255} {
		for _, tok := range []uint32{0, 1, 0xFFFFFF} {
			core, got := unpackWaiter(packWaiter(c, tok))
			if core != c || got != tok {
				t.Fatalf("pack/unpack (%d,%d) = (%d,%d)", c, tok, core, got)
			}
		}
	}
}

// TestDrainedCounterMatchesScan drives mixed traffic (loads, stores,
// atomics, plus write-backs from dirty evictions) and checks every cycle
// that the O(1) in-flight counter agrees with the structural scan it
// replaced. Any request the counter leaks or double-frees diverges here.
func TestDrainedCounterMatchesScan(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.XbarQueueCap = 2
		c.DRAMQueueCap = 2
		c.L2MSHREntries = 2
		c.L2BytesPerPartition = 4 * 128
		c.L2Ways = 2
	})
	check := func() {
		if got, want := h.sys.Drained(), h.sys.drainedScan(); got != want {
			t.Fatalf("cycle %d: Drained() = %t, scan = %t (inflight=%d)",
				h.now, got, want, h.sys.inflight)
		}
	}
	issued := 0
	for h.now < 20000 && (issued < 48 || !h.sys.Drained()) {
		if issued < 48 {
			addr := uint64(issued) * uint64(h.cfg.LineBytes)
			var res AccessResult
			switch issued % 3 {
			case 0:
				res = h.l1.Load(addr, uint32(issued), h.now)
			case 1:
				res = h.l1.Store(addr, h.now)
			default:
				res = h.l1.Atomic(addr, uint32(issued), h.now)
			}
			if res != AccessStall {
				issued++
			}
		}
		if resp, ok := h.step(); ok {
			h.l1.OnResponse(resp, resp.Atomic)
		}
		check()
	}
	if issued < 48 {
		t.Fatalf("only issued %d/48 accesses", issued)
	}
	if !h.sys.Drained() {
		t.Fatal("system never drained")
	}
	check()
}

// TestSystemNextEventBounds checks the event bound's two edges: a quiescent
// hierarchy reports NeverEvent, and in-flight work always reports a finite
// wake-up no earlier than now.
func TestSystemNextEventBounds(t *testing.T) {
	h := newHarness(t, nil)
	if ev := h.sys.NextEvent(h.now); ev != NeverEvent {
		t.Fatalf("quiescent NextEvent = %d, want NeverEvent", ev)
	}
	h.l1.Load(0, 7, h.now)
	for !h.sys.Drained() {
		ev := h.sys.NextEvent(h.now)
		if ev == NeverEvent {
			t.Fatalf("cycle %d: in-flight work but NextEvent = NeverEvent", h.now)
		}
		if ev < h.now {
			t.Fatalf("cycle %d: NextEvent = %d in the past", h.now, ev)
		}
		if resp, ok := h.step(); ok {
			h.l1.OnResponse(resp, false)
		}
		if h.now > 5000 {
			t.Fatal("load never completed")
		}
	}
	if ev := h.sys.NextEvent(h.now); ev != NeverEvent {
		t.Fatalf("drained NextEvent = %d, want NeverEvent", ev)
	}
}

// TestCrossbarAdmitsPerSend bursts 15 ports at one partition in one cycle:
// admission is per send, so CanSend turns false at the XbarQueueCap-th send
// within the cycle — whichever port makes it — and the request pipe never
// holds more than its capacity after any Tick. Back-pressure inside a cycle
// is what lets the crossbar throttle the baseline at all.
func TestCrossbarAdmitsPerSend(t *testing.T) {
	const cores = 15
	cfg := DefaultConfig()
	sys := NewSystem(&cfg, cores)
	ports := make([]Sender, cores)
	for c := range ports {
		ports[c] = sys.Port(c)
	}
	stride := uint64(cfg.Partitions * cfg.LineBytes) // every line maps to partition 0
	sent, popped := 0, 0
	for now := uint64(0); now < 400; now++ {
		free := cfg.XbarQueueCap - sys.toPart[0].Len()
		admitted := 0
		for c, p := range ports {
			for k := 0; k < 4; k++ { // up to 4 sends per port per cycle
				addr := uint64(sent) * stride
				if !p.CanSend(addr) {
					break
				}
				if admitted == free {
					t.Fatalf("cycle %d: port %d admitted with the queue full (%d sends into %d free entries)", now, c, admitted+1, free)
				}
				p.Send(Request{Kind: ReqLoad, LineAddr: addr, CoreID: c, Token: uint32(sent), Born: now}, now)
				admitted++
				sent++
			}
		}
		if now == 0 && admitted != cfg.XbarQueueCap {
			t.Fatalf("cycle 0: %d sends admitted into an empty queue of %d", admitted, cfg.XbarQueueCap)
		}
		sys.Tick(now)
		if n := sys.toPart[0].Len(); n > cfg.XbarQueueCap {
			t.Fatalf("cycle %d: request pipe holds %d entries, capacity %d", now, n, cfg.XbarQueueCap)
		}
		for c := 0; c < cores; c++ {
			for {
				if _, ok := sys.PopResponse(c, now); !ok {
					break
				}
				popped++
			}
		}
	}
	if popped == 0 || popped > sent {
		t.Fatalf("popped %d responses for %d sends", popped, sent)
	}
}

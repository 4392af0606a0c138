package mem

import (
	"fmt"
	"reflect"
	"testing"
)

// renewRig is a memory system with one L1 per core, driven without SMs.
type renewRig struct {
	sys *System
	l1s []*L1
}

func (r *renewRig) renew(cfg *Config) *renewRig {
	sys := RenewSystem(r.sys, cfg, len(r.l1s))
	out := &renewRig{sys: sys}
	for c, l1 := range r.l1s {
		out.l1s = append(out.l1s, RenewL1(l1, cfg, c, sys.Port(c)))
	}
	return out
}

// step runs cycle now: every core tries one load (lines that hit, miss and
// merge, over all partitions) and pops its responses, which are logged, and
// the hierarchy ticks.
func (r *renewRig) step(now uint64, log *[]string) {
	for c, l1 := range r.l1s {
		line := (now*7 + uint64(c)*13) % 700 * 128
		l1.Load(line, uint32(now)<<4|uint32(c), now)
		for {
			resp, ok := r.sys.PopResponse(c, now)
			if !ok {
				break
			}
			*log = append(*log, fmt.Sprintf("%d %d %+v %v", now, c, resp, l1.OnResponse(resp, false)))
		}
	}
	r.sys.Tick(now)
}

// TestRenewSystemDropsInFlight cuts a loaded memory system while a partition
// holds a response for the return network, renews it, and checks the renewed
// system is as empty as a new one and serves the same traffic the same way,
// response for response.
func TestRenewSystemDropsInFlight(t *testing.T) {
	cfg := DefaultConfig()
	build := func() *renewRig {
		sys := NewSystem(&cfg, 2)
		return &renewRig{sys: sys, l1s: []*L1{NewL1(&cfg, 0, sys.Port(0)), NewL1(&cfg, 1, sys.Port(1))}}
	}
	old := build()
	var discard []string
	cut := func() bool {
		for _, p := range old.sys.partitions {
			if len(p.out) > 0 {
				return true
			}
		}
		return false
	}
	now := uint64(0)
	for ; now < 200 || !cut(); now++ {
		if now == 10_000 {
			t.Fatal("no partition ever held a response for the return network")
		}
		old.step(now, &discard)
	}

	renewed := old.renew(&cfg)
	if renewed.sys != old.sys {
		t.Error("RenewSystem built a new System instead of renewing its predecessor")
	}
	if !renewed.sys.drainedScan() || !renewed.sys.Drained() || nextEvent(renewed.sys, 0) != NeverEvent {
		t.Fatal("the renewed system still holds the cut run's traffic")
	}
	fresh := build()
	var got, want []string
	for now := uint64(0); now < 3000; now++ {
		renewed.step(now, &got)
		fresh.step(now, &want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("renewed system delivered %d responses, a new one %d; they differ", len(got), len(want))
	}
	if g, w := renewed.sys.L2Stats(3000), fresh.sys.L2Stats(3000); g != w {
		t.Errorf("L2 counters: renewed %+v, new %+v", g, w)
	}
	if g, w := renewed.sys.DRAMStats(), fresh.sys.DRAMStats(); g != w {
		t.Errorf("DRAM counters: renewed %+v, new %+v", g, w)
	}
	for c := range renewed.l1s {
		if g, w := renewed.l1s[c].Stats(3000), fresh.l1s[c].Stats(3000); g != w {
			t.Errorf("core %d L1 counters: renewed %+v, new %+v", c, g, w)
		}
	}
}

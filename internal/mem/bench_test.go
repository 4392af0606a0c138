package mem

import (
	"testing"

	"gpusched/internal/isa"
)

// BenchmarkCacheLookupHit cycles through four lines of each set of a 4-way
// cache, so every lookup hits the least recently used way: the longest shift.
func BenchmarkCacheLookupHit(b *testing.B) {
	c := NewCache(16*1024, 128, 4)
	for i := 0; i < 128; i++ {
		c.Fill(uint64(i*128), false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64((i%128)*128), false)
	}
}

// BenchmarkCacheLookupMRU looks up one line per set, so every lookup hits
// the most recently used way and shifts nothing.
func BenchmarkCacheLookupMRU(b *testing.B) {
	c := NewCache(16*1024, 128, 4)
	for i := 0; i < 128; i++ {
		c.Fill(uint64(i*128), false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64((i%32)*128), false)
	}
}

func BenchmarkCacheFillEvict(b *testing.B) {
	c := NewCache(16*1024, 128, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(uint64(i)*128, false)
	}
}

func BenchmarkCoalescePerfect(b *testing.B) {
	var wi isa.WarpInstr
	wi.Mask = isa.FullMask
	isa.FillLinear(&wi, 0, 4)
	buf := make([]uint64, 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Coalesce(buf[:0], &wi, 0, 128)
	}
}

func BenchmarkCoalesceDiverged(b *testing.B) {
	var wi isa.WarpInstr
	wi.Mask = isa.FullMask
	isa.FillLinear(&wi, 0, 128)
	buf := make([]uint64, 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Coalesce(buf[:0], &wi, 0, 128)
	}
}

func BenchmarkMSHRAllocateComplete(b *testing.B) {
	m := NewMSHR(32, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := uint64(i%32) * 128
		if m.Pending(line) {
			m.Complete(line)
		}
		m.Allocate(line, uint32(i))
	}
}

func BenchmarkDRAMChannelStreaming(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Partitions = 1
	d := NewDRAMChannel(&cfg, func(Request, uint64) {})
	next := uint64(0)
	b.ResetTimer()
	for now := uint64(0); now < uint64(b.N); now++ {
		if d.CanAccept() {
			d.Enqueue(Request{Kind: ReqLoad, LineAddr: next * 128}, now)
			next++
		}
		d.Tick(now)
	}
}

func BenchmarkSystemLoadRoundTrips(b *testing.B) {
	cfg := DefaultConfig()
	sys := NewSystem(&cfg, 1)
	l1 := NewL1(&cfg, 0, sys.Port(0))
	now := uint64(0)
	inflight := 0
	line := uint64(0)
	b.ResetTimer()
	for done := 0; done < b.N; {
		if inflight < 32 {
			if l1.Load(line, uint32(line/128%1000), now) == AccessPending {
				inflight++
				line += 128
			}
		}
		sys.Tick(now)
		if resp, ok := sys.PopResponse(0, now); ok {
			l1.OnResponse(resp, false)
			inflight--
			done++
		}
		now++
	}
}

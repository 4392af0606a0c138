package mem

import (
	"testing"
	"testing/quick"
)

// TestPipeFIFOProperty: any interleaving of pushes and pops preserves FIFO
// order and never loses or duplicates entries.
func TestPipeFIFOProperty(t *testing.T) {
	f := func(ops []bool, capRaw, latRaw uint8) bool {
		capacity := int(capRaw%20) + 1 // up to two ring doublings past the first 4 slots
		latency := uint64(latRaw % 16)
		p := renewPipe[int](nil, capacity, latency)
		next, expect := 0, 0
		now := uint64(0)
		for _, isPush := range ops {
			if isPush {
				if p.Push(now, next) {
					next++
				} else if p.Len() != capacity {
					return false // rejected while not full
				}
			} else if p.CanPop(now) {
				if p.Pop() != expect {
					return false
				}
				expect++
			}
			now++
		}
		// Drain the rest.
		now += latency
		for p.CanPop(now) {
			if p.Pop() != expect {
				return false
			}
			expect++
		}
		return expect == next && p.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMSHRConservationProperty: every token allocated or merged comes back
// exactly once through Complete.
func TestMSHRConservationProperty(t *testing.T) {
	f := func(lines []uint8, entriesRaw, mergesRaw uint8) bool {
		m := NewMSHR(int(entriesRaw%8)+1, int(mergesRaw%4)+1)
		in := map[uint32]bool{}
		tok := uint32(0)
		for _, l := range lines {
			line := uint64(l%16) * 128
			if m.Pending(line) {
				if m.Merge(line, tok) {
					in[tok] = true
					tok++
				}
			} else if m.Allocate(line, tok) {
				in[tok] = true
				tok++
			}
		}
		out := map[uint32]bool{}
		for line := uint64(0); line < 16*128; line += 128 {
			for _, tk := range m.Complete(line) {
				if out[tk] {
					return false // duplicate release
				}
				out[tk] = true
			}
		}
		if len(out) != len(in) {
			return false
		}
		for tk := range in {
			if !out[tk] {
				return false
			}
		}
		return m.Used() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDRAMCompletionConservation: every enqueued read completes exactly
// once, regardless of address pattern; writes never produce completions;
// and no more reads are in flight than the channel has banks.
func TestDRAMCompletionConservation(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		cfg := testDRAMConfig()
		got := map[uint32]int{}
		d := NewDRAMChannel(cfg, func(req Request, now uint64) {
			got[req.Token]++
		})
		reads := 0
		now := uint64(0)
		i := 0
		for i < len(addrs) {
			if now > 1000*uint64(len(addrs)) {
				return false // the queue stopped draining
			}
			if d.CanAccept() {
				kind := ReqLoad
				if i < len(writes) && writes[i] {
					kind = ReqStore
				} else {
					reads++
				}
				d.Enqueue(Request{
					Kind:     kind,
					LineAddr: uint64(addrs[i]) * 128,
					Token:    uint32(i),
				}, now)
				i++
			}
			d.Tick(now)
			if len(d.completions) > cfg.DRAMBanks {
				return false // more reads in flight than banks
			}
			now++
		}
		for j := 0; j < 5000 && !d.Drained(); j++ {
			d.Tick(now)
			now++
		}
		if !d.Drained() {
			return false
		}
		total := 0
		for _, n := range got {
			if n != 1 {
				return false
			}
			total++
		}
		return total == reads
	}
	cfgQ := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfgQ); err != nil {
		t.Error(err)
	}
}

// TestCacheNoPhantomHits: a lookup can only hit a line that was filled and
// not yet displaced.
func TestCacheNoPhantomHits(t *testing.T) {
	f := func(fills, probes []uint8) bool {
		c := NewCache(1024, 128, 2)
		resident := map[uint64]bool{}
		for _, a := range fills {
			line := uint64(a%64) * 128
			ev := c.Fill(line, false)
			resident[line] = true
			if ev.Valid {
				if !resident[ev.LineAddr] {
					return false // evicted something never filled
				}
				delete(resident, ev.LineAddr)
			}
		}
		for _, a := range probes {
			line := uint64(a%64) * 128
			if c.Contains(line) != resident[line] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refMSHR is the linear-scan model of an MSHR file: a list of pending lines
// with their waiters, searched front to back.
type refMSHR struct {
	entries            []refEntry
	maxEntries, merges int
}

type refEntry struct {
	line   uint64
	tokens []uint32
	atomic bool
}

func (r *refMSHR) find(line uint64) int {
	for i := range r.entries {
		if r.entries[i].line == line {
			return i
		}
	}
	return -1
}

// TestMSHRMatchesLinearScanModel: random Allocate/Merge/MarkAtomic/Complete
// sequences leave Pending, Atomic and Used where a linear scan over the
// pending lines says they are; Complete releases the same tokens in the same
// order; and a primary miss on a pending line still panics while the file
// has room (a full file refuses it first). Half of the line pool shares one
// hash bucket, so chains of several slots are built, searched and unlinked
// from the middle.
func TestMSHRMatchesLinearScanModel(t *testing.T) {
	f := func(ops []uint16, entriesRaw, mergesRaw uint8) bool {
		m := NewMSHR(int(entriesRaw%8)+1, int(mergesRaw%4)+1)
		ref := &refMSHR{maxEntries: m.maxEntries, merges: m.maxMerges}
		var pool []uint64
		for l := uint64(0); len(pool) < 8; l += 128 {
			if m.bucket(l) == m.bucket(0) {
				pool = append(pool, l)
			}
		}
		for l := uint64(128 * 1000); len(pool) < 16; l += 128 {
			pool = append(pool, l)
		}
		tok := uint32(0)
		for _, op := range ops {
			line := pool[int(op>>2)%len(pool)]
			i := ref.find(line)
			switch op & 3 {
			case 0: // allocate, or merge when already pending
				if i >= 0 {
					if len(ref.entries) < ref.maxEntries && !allocatePanics(m, line) {
						return false
					}
					ok := len(ref.entries[i].tokens) < ref.merges
					if ok {
						ref.entries[i].tokens = append(ref.entries[i].tokens, tok)
					}
					if m.Merge(line, tok) != ok {
						return false
					}
				} else {
					ok := len(ref.entries) < ref.maxEntries
					if ok {
						ref.entries = append(ref.entries, refEntry{line: line, tokens: []uint32{tok}})
					}
					if m.Allocate(line, tok) != ok {
						return false
					}
				}
				tok++
			case 1:
				if i >= 0 {
					ref.entries[i].atomic = true
					m.MarkAtomic(line)
				}
			default:
				got := m.Complete(line)
				if i < 0 {
					if got != nil {
						return false
					}
					break
				}
				want := ref.entries[i].tokens
				ref.entries = append(ref.entries[:i], ref.entries[i+1:]...)
				if len(got) != len(want) {
					return false
				}
				for k := range want {
					if got[k] != want[k] {
						return false
					}
				}
			}
			if m.Used() != len(ref.entries) {
				return false
			}
			for _, l := range pool {
				j := ref.find(l)
				if m.Pending(l) != (j >= 0) || m.Atomic(l) != (j >= 0 && ref.entries[j].atomic) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// allocatePanics reports whether Allocate(line) panics, as it must when line
// is already pending.
func allocatePanics(m *MSHR, line uint64) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	m.Allocate(line, ^uint32(0))
	return false
}

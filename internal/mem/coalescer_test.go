package mem

import (
	"testing"
	"testing/quick"

	"gpusched/internal/isa"
)

func TestCoalescePerfect(t *testing.T) {
	var wi isa.WarpInstr
	wi.Op = isa.OpLoadGlobal
	wi.Mask = isa.FullMask
	isa.FillLinear(&wi, 0, 4) // 32 lanes x 4B = one 128B line
	lines := Coalesce(nil, &wi, 0, 128)
	if len(lines) != 1 || lines[0] != 0 {
		t.Fatalf("lines = %v, want [0]", lines)
	}
}

func TestCoalesceMisaligned(t *testing.T) {
	var wi isa.WarpInstr
	wi.Mask = isa.FullMask
	isa.FillLinear(&wi, 64, 4) // straddles two lines
	lines := Coalesce(nil, &wi, 0, 128)
	if len(lines) != 2 || lines[0] != 0 || lines[1] != 128 {
		t.Fatalf("lines = %v, want [0 128]", lines)
	}
}

func TestCoalesceFullyDiverged(t *testing.T) {
	var wi isa.WarpInstr
	wi.Mask = isa.FullMask
	isa.FillLinear(&wi, 0, 128) // one line per lane
	lines := Coalesce(nil, &wi, 0, 128)
	if len(lines) != 32 {
		t.Fatalf("got %d lines, want 32", len(lines))
	}
	for i, l := range lines {
		if l != uint64(i*128) {
			t.Fatalf("line %d = %d (first-lane order violated)", i, l)
		}
	}
}

func TestCoalesceRespectsMask(t *testing.T) {
	var wi isa.WarpInstr
	wi.Mask = 0x1 // only lane 0
	isa.FillLinear(&wi, 0, 128)
	lines := Coalesce(nil, &wi, 0, 128)
	if len(lines) != 1 {
		t.Fatalf("masked coalesce = %v, want 1 line", lines)
	}
	wi.Mask = 0
	if lines = Coalesce(nil, &wi, 0, 128); len(lines) != 0 {
		t.Fatalf("all-inactive coalesce = %v, want none", lines)
	}
}

func TestCoalesceAppliesBase(t *testing.T) {
	var wi isa.WarpInstr
	wi.Mask = 1
	wi.Addrs[0] = 100
	base := uint64(1) << 40
	lines := Coalesce(nil, &wi, base, 128)
	if len(lines) != 1 || lines[0] != base {
		t.Fatalf("lines = %v, want [%d]", lines, base)
	}
}

func TestCoalesceReusesDst(t *testing.T) {
	var wi isa.WarpInstr
	wi.Mask = isa.FullMask
	isa.FillLinear(&wi, 0, 4)
	buf := make([]uint64, 0, 32)
	lines := Coalesce(buf[:0], &wi, 0, 128)
	if len(lines) != 1 {
		t.Fatalf("reused-buffer coalesce = %v", lines)
	}
}

func TestCoalesceProperties(t *testing.T) {
	// Properties: (1) every produced line is line-aligned, (2) every active
	// lane's line appears in the output, (3) no duplicates, (4) count is
	// between 1 and the active-lane count.
	f := func(mask uint32, addrs [32]uint32) bool {
		var wi isa.WarpInstr
		wi.Mask = mask
		wi.Addrs = addrs
		lines := Coalesce(nil, &wi, 0, 128)
		seen := map[uint64]bool{}
		for _, l := range lines {
			if l%128 != 0 || seen[l] {
				return false
			}
			seen[l] = true
		}
		active := 0
		for lane := 0; lane < 32; lane++ {
			if mask&(1<<lane) == 0 {
				continue
			}
			active++
			if !seen[uint64(addrs[lane])&^127] {
				return false
			}
		}
		if active == 0 {
			return len(lines) == 0
		}
		return len(lines) >= 1 && len(lines) <= active
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPipeLatencyAndCapacity(t *testing.T) {
	p := renewPipe[int](nil, 2, 10)
	if !p.Push(0, 1) || !p.Push(0, 2) {
		t.Fatal("pushes within capacity failed")
	}
	if p.Push(0, 3) {
		t.Fatal("push past capacity succeeded")
	}
	if p.CanPop(9) {
		t.Fatal("entry visible before latency elapsed")
	}
	if !p.CanPop(10) {
		t.Fatal("entry not visible at latency")
	}
	if got := p.Pop(); got != 1 {
		t.Fatalf("Pop = %d, want 1 (FIFO order)", got)
	}
	if got := p.Peek(); got != 2 {
		t.Fatalf("Peek = %d, want 2", got)
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d, want 1", p.Len())
	}
}

func TestPipeOrdering(t *testing.T) {
	p := renewPipe[int](nil, 8, 5)
	for i := 0; i < 5; i++ {
		p.Push(uint64(i), i)
	}
	now := uint64(100)
	var got []int
	for p.CanPop(now) {
		got = append(got, p.Pop())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("drained %d, want 5", len(got))
	}
}

func TestConfigAddressHelpers(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.LineShift() != 7 {
		t.Fatalf("LineShift = %d, want 7", cfg.LineShift())
	}
	if cfg.LineAddr(1000) != 896 {
		t.Fatalf("LineAddr(1000) = %d, want 896", cfg.LineAddr(1000))
	}
	// Consecutive lines interleave across partitions.
	seen := map[int]bool{}
	for i := 0; i < cfg.Partitions; i++ {
		seen[cfg.PartitionOf(uint64(i*cfg.LineBytes))] = true
	}
	if len(seen) != cfg.Partitions {
		t.Fatalf("line interleave covered %d partitions, want %d", len(seen), cfg.Partitions)
	}
}

package sm

import (
	"testing"
	"unsafe"

	"gpusched/internal/isa"
	"gpusched/internal/mem"
)

// TestContextSizes pins the per-warp, per-queue-entry and per-unit
// footprint: a warp and a queued memory instruction keep the decoded
// instruction, never the lane formula or the 32 lane addresses of an
// isa.WarpInstr, and the LDST unit holds the SM's one fetch buffer and no
// memo of what it last fetched.
func TestContextSizes(t *testing.T) {
	if n := unsafe.Sizeof(Warp{}); n > 112 {
		t.Errorf("Warp is %d bytes, want at most 112", n)
	}
	if n := unsafe.Sizeof(ldstEntry{}); n > 72 {
		t.Errorf("ldstEntry is %d bytes, want at most 72", n)
	}
	if n := unsafe.Sizeof(ldstUnit{}); n > 328 {
		t.Errorf("ldstUnit is %d bytes, want at most 328", n)
	}
}

// sendRecorder is an L1 injection port that logs every line it sends.
type sendRecorder struct {
	mem.Sender
	sent []uint64
}

func (r *sendRecorder) Send(req mem.Request, now uint64) {
	r.sent = append(r.sent, req.LineAddr)
	r.Sender.Send(req, now)
}

// globalMix is the global-memory program of one warp, in a 16 KB region of
// its own: a masked store, a divergent 32-line store and load in scrambled
// lane order, a masked load, fully predicated-off forms of each, and two
// affine ops (a masked load and a store whose stride wraps). Every
// instruction touches lines no other does, so each line a load names is a
// cold miss the L1 sends, as every store line is (write-through).
func globalMix(region uint32) []isa.WarpInstr {
	var prog []isa.WarpInstr
	add := func(op isa.Op, dst, src isa.Reg, mask uint32, addr func(lane int) uint32) {
		wi := isa.WarpInstr{Op: op, Dst: dst, Src: [3]isa.Reg{src}, Mask: mask}
		for l := range wi.Addrs {
			wi.Addrs[l] = region + addr(l)
		}
		prog = append(prog, wi)
	}
	// Lanes 0..31 descend through four lines; eight of them are active.
	add(isa.OpStoreGlobal, 0, 1, 0x8001_0F11, func(l int) uint32 { return uint32(31-l) * 16 })
	add(isa.OpStoreGlobal, 0, 1, isa.FullMask, func(l int) uint32 { return 1<<12 + uint32(l*7%32)*128 })
	add(isa.OpStoreGlobal, 0, 1, 0, func(l int) uint32 { return 1<<12 + uint32(l)*128 })
	add(isa.OpLoadGlobal, 2, 0, isa.FullMask, func(l int) uint32 { return 2<<12 + uint32(l*13%32)*128 })
	add(isa.OpLoadGlobal, 3, 0, 0x0000_FFFF, func(l int) uint32 { return 3<<12 + uint32(l)*64 })
	add(isa.OpLoadGlobal, 4, 0, 0, func(l int) uint32 { return 3<<12 + uint32(l)*4 })
	affine := func(op isa.Op, dst, src isa.Reg, mask, base, stride uint32) {
		wi := isa.WarpInstr{Op: op, Dst: dst, Src: [3]isa.Reg{src}, Mask: mask}
		isa.FillLinear(&wi, region+base, stride)
		prog = append(prog, wi)
	}
	// Lanes 16..31 read one line; then lanes 0..31 descend through sixteen
	// lines, 64 bytes apart, by a stride that wraps around the 32-bit space.
	affine(isa.OpLoadGlobal, 6, 0, 0xFFFF_0000, 3<<12+1024-64, 4)
	affine(isa.OpStoreGlobal, 0, 1, isa.FullMask, 3<<12+4092, 0xFFFF_FFC0)
	prog = append(prog,
		isa.WarpInstr{Op: isa.OpFAlu, Dst: 5, Src: [3]isa.Reg{2, 3, 4}, Mask: isa.FullMask},
		isa.WarpInstr{Op: isa.OpFAlu, Dst: 7, Src: [3]isa.Reg{6}, Mask: isa.FullMask},
		isa.WarpInstr{Op: isa.OpExit, Mask: isa.FullMask})
	return prog
}

// overlaps reports whether two slices share any of their backing arrays'
// capacity.
func overlaps(a, b []uint64) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b))*8 && pb < pa+uintptr(cap(a))*8
}

// TestLDSTSendsCoalescedLanes runs globalMix on every warp of a stream of
// two-warp CTAs, three resident at a time, each retired context recycled
// into the next placement. Each warp's sends, in order, must be exactly the
// lines mem.Coalesce gives for its full instructions: a global op's lanes
// are read when it issues, by fetching the op again into the SM's shared
// fetch buffer, so this also checks that no warp sees another's lanes and
// that each op is stepped past exactly once. Every cycle, no line buffer the LDST queue
// holds may share memory with another entry's or with any CTA context's
// scoreboard slab, whether the context is resident, pooled or re-placed.
func TestLDSTSendsCoalescedLanes(t *testing.T) {
	const (
		warps    = 2
		ctas     = 8
		resident = 3
		addrBase = 1 << 32
	)
	r := newRig(t, nil)
	rec := &sendRecorder{Sender: r.sys.Port(0)}
	r.sm.l1 = mem.NewL1(r.sm.memCfg, 0, rec)
	region := func(cta, w int) uint32 { return uint32(cta*warps+w) << 14 }
	spec := perWarpSpec(warps, func(cta, w int) isa.Program {
		return &isa.SliceProgram{Instrs: globalMix(region(cta, w))}
	})
	lineBytes := r.sm.memCfg.LineBytes
	want := map[uint64][]uint64{} // by region
	for cta := 0; cta < ctas; cta++ {
		for w := 0; w < warps; w++ {
			var lines []uint64
			for _, wi := range globalMix(region(cta, w)) {
				if wi.Op.IsGlobal() {
					lines = mem.Coalesce(lines, &wi, addrBase, lineBytes)
				}
			}
			want[uint64(region(cta, w))] = lines
		}
	}

	contexts := map[*CTA]bool{}
	placed := 0
	place := func() {
		contexts[r.sm.AddCTA(spec, 0, placed, addrBase, 0, 0, r.now)] = true
		placed++
	}
	for placed < resident {
		place()
	}
	reused, seen := 0, 0
	for len(r.done) < ctas && r.now < 200_000 {
		r.step()
		for ; seen < len(r.done); seen++ {
			r.sm.Recycle(r.done[seen])
			if placed < ctas {
				n := len(contexts)
				place()
				if len(contexts) == n {
					reused++
				}
			}
		}
		u := r.sm.ldst
		for i := 0; i < u.qLen; i++ {
			held := u.queue[ring(u.qHead, i, u.cap)].lines
			for j := i + 1; j < u.qLen; j++ {
				if overlaps(held, u.queue[ring(u.qHead, j, u.cap)].lines) {
					t.Fatalf("cycle %d: queue entries %d and %d share a line buffer", r.now, i, j)
				}
			}
			for cta := range contexts {
				if overlaps(held, cta.regs) {
					t.Fatalf("cycle %d: a queued line buffer lies in CTA %d's scoreboard slab", r.now, cta.ID)
				}
			}
		}
	}
	if len(r.done) < ctas {
		t.Fatalf("only %d of %d CTAs completed by cycle %d", len(r.done), ctas, r.now)
	}
	if reused == 0 {
		t.Fatal("no placement reused a pooled context")
	}
	got := map[uint64][]uint64{}
	for _, line := range rec.sent {
		key := (line - addrBase) &^ (1<<14 - 1)
		got[key] = append(got[key], line)
	}
	for key, lines := range want {
		if len(got[key]) != len(lines) {
			t.Fatalf("region %#x: %d lines sent, want %d", key, len(got[key]), len(lines))
		}
		for i := range lines {
			if got[key][i] != lines[i] {
				t.Fatalf("region %#x: send %d is %#x, want %#x (all: %#x, want %#x)", key, i, got[key][i], lines[i], got[key], lines)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d regions sent lines, want %d", len(got), len(want))
	}
}

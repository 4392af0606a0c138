package workloads

import (
	"gpusched/internal/isa"
	"gpusched/internal/kernel"
)

// Emit fills buf with one instruction for the warp at c. It reads the
// warp's identity (c.CTA, c.Warp) and loop iteration (c.Iter), nothing else
// of the cursor. buf arrives with its header cleared (isa.WarpInstr.Reset)
// and its lanes holding another instruction's: an Emit sets the header
// fields it needs, and a global op that is not affine writes every active
// lane.
type Emit func(buf *isa.WarpInstr, c *isa.Cursor)

// Lanes writes the 32 lane addresses of a gather or an atomic for the warp
// at c, in one call per instruction.
type Lanes func(c *isa.Cursor, a *[isa.WarpSize]uint32)

// loopProgram is the program shape every workload kernel uses: a prologue
// executed once, a body repeated iters times, an epilogue, then EXIT. It is
// a template, built once per workload and scale and shared by every warp:
// it materializes nothing and never changes, and each instruction is
// produced on demand by an Emit closure from the warp's cursor.
type loopProgram struct {
	prologue []Emit
	body     []Emit
	epilogue []Emit
	iters    int
	// regs is the register footprint, counted by shared.
	regs int
}

// The cursor phases of a loopProgram. Pos indexes the phase's Emit slice,
// and Iter counts the body passes done.
const (
	inPrologue = iota
	inBody
	inEpilogue
	atExit
	exited
)

// Next implements isa.Program.
func (p *loopProgram) Next(c *isa.Cursor, buf *isa.WarpInstr) bool {
	for {
		switch c.Phase {
		case inPrologue:
			if c.Pos < len(p.prologue) {
				buf.Reset()
				p.prologue[c.Pos](buf, c)
				c.Pos++
				return true
			}
			c.Phase, c.Pos = inBody, 0
		case inBody:
			if c.Iter >= p.iters || len(p.body) == 0 {
				c.Phase, c.Pos = inEpilogue, 0
				continue
			}
			buf.Reset()
			p.body[c.Pos](buf, c)
			c.Pos++
			if c.Pos == len(p.body) {
				c.Pos = 0
				c.Iter++
			}
			return true
		case inEpilogue:
			if c.Pos < len(p.epilogue) {
				buf.Reset()
				p.epilogue[c.Pos](buf, c)
				c.Pos++
				return true
			}
			c.Phase = atExit
		case atExit:
			buf.Reset()
			buf.Op = isa.OpExit
			buf.Mask = isa.FullMask
			c.Phase = exited
			return true
		default:
			return false
		}
	}
}

// Regs implements isa.Program.
func (p *loopProgram) Regs() int { return p.regs }

// instrPerWarp returns the dynamic instruction count the program will emit.
func (p *loopProgram) instrPerWarp() int {
	return len(p.prologue) + p.iters*len(p.body) + len(p.epilogue) + 1
}

// shared is the program factory that gives every warp the one template p.
// It counts p's register footprint first, while p is still private: an
// Emit's registers are its constructor arguments, whatever the cursor, so
// one call of each into a scratch record names them all (EXIT names none).
func shared(p *loopProgram) kernel.ProgramFactory {
	var buf isa.WarpInstr
	var c isa.Cursor
	p.regs = 1
	for _, sec := range [][]Emit{p.prologue, p.body, p.epilogue} {
		for _, emit := range sec {
			buf.Reset()
			emit(&buf, &c)
			p.regs = max(p.regs, buf.Regs())
		}
	}
	return func(int, int) isa.Program { return p }
}

// gwarp is the grid-wide index of the warp at c, for a kernel of
// warpsPerCTA warps per CTA.
func gwarp(c *isa.Cursor, warpsPerCTA int) int {
	return c.CTA*warpsPerCTA + c.Warp
}

// warpBase is the byte offset of the warp at c in a grid-wide array with
// one laneBytes-byte element per thread, in thread order: the layout the
// streaming kernels read.
func warpBase(c *isa.Cursor, warpsPerCTA, laneBytes int) uint32 {
	return uint32(gwarp(c, warpsPerCTA) * isa.WarpSize * laneBytes)
}

// warpOff is the byte offset of the warp at c within a tile its CTA owns,
// one 4-byte word per lane.
func warpOff(c *isa.Cursor) uint32 {
	return uint32(c.Warp * isa.WarpSize * 4)
}

// ---- Emit constructors ----

// alu emits an arithmetic op dst <- f(srcs), all lanes active.
func alu(op isa.Op, dst isa.Reg, srcs ...isa.Reg) Emit {
	var s [3]isa.Reg
	copy(s[:], srcs)
	return func(buf *isa.WarpInstr, _ *isa.Cursor) {
		buf.Op = op
		buf.Dst = dst
		buf.Src = s
		buf.Mask = isa.FullMask
	}
}

// aluMasked emits an arithmetic op whose active mask depends on the warp
// and iteration (divergence modeling).
func aluMasked(op isa.Op, dst isa.Reg, mask func(c *isa.Cursor) uint32, srcs ...isa.Reg) Emit {
	var s [3]isa.Reg
	copy(s[:], srcs)
	return func(buf *isa.WarpInstr, c *isa.Cursor) {
		buf.Op = op
		buf.Dst = dst
		buf.Src = s
		buf.Mask = mask(c)
	}
}

// ldg emits a perfectly-coalesced global load: lane l reads base(c)+4l.
func ldg(dst isa.Reg, base func(c *isa.Cursor) uint32) Emit {
	return ldgStride(dst, base, 4)
}

// ldgStride emits a global load whose lane l reads base(c)+l*stride.
func ldgStride(dst isa.Reg, base func(c *isa.Cursor) uint32, stride uint32) Emit {
	return func(buf *isa.WarpInstr, c *isa.Cursor) {
		buf.Op = isa.OpLoadGlobal
		buf.Dst = dst
		buf.Mask = isa.FullMask
		isa.FillLinear(buf, base(c), stride)
	}
}

// ldgMasked is ldg with a per-warp, per-iteration active mask.
func ldgMasked(dst isa.Reg, mask, base func(c *isa.Cursor) uint32) Emit {
	return func(buf *isa.WarpInstr, c *isa.Cursor) {
		buf.Op = isa.OpLoadGlobal
		buf.Dst = dst
		buf.Mask = mask(c)
		isa.FillLinear(buf, base(c), 4)
	}
}

// gather emits a global load with arbitrary per-lane addressing and a
// per-warp, per-iteration active mask.
func gather(dst isa.Reg, mask func(c *isa.Cursor) uint32, lanes Lanes) Emit {
	return func(buf *isa.WarpInstr, c *isa.Cursor) {
		buf.Op = isa.OpLoadGlobal
		buf.Dst = dst
		buf.Mask = mask(c)
		lanes(c, &buf.Addrs)
	}
}

// allLanes is the active mask of an unpredicated instruction.
func allLanes(*isa.Cursor) uint32 { return isa.FullMask }

// stg emits a perfectly-coalesced global store of src.
func stg(src isa.Reg, base func(c *isa.Cursor) uint32) Emit {
	return func(buf *isa.WarpInstr, c *isa.Cursor) {
		buf.Op = isa.OpStoreGlobal
		buf.Src = [3]isa.Reg{src}
		buf.Mask = isa.FullMask
		isa.FillLinear(buf, base(c), 4)
	}
}

// lds emits a scratchpad load with the given bank-conflict degree.
func lds(dst isa.Reg, conflict uint8) Emit {
	return func(buf *isa.WarpInstr, _ *isa.Cursor) {
		buf.Op = isa.OpLoadShared
		buf.Dst = dst
		buf.Mask = isa.FullMask
		buf.BankConflict = conflict
	}
}

// sts emits a scratchpad store with the given bank-conflict degree.
func sts(src isa.Reg, conflict uint8) Emit {
	return func(buf *isa.WarpInstr, _ *isa.Cursor) {
		buf.Op = isa.OpStoreShared
		buf.Src = [3]isa.Reg{src}
		buf.Mask = isa.FullMask
		buf.BankConflict = conflict
	}
}

// stsMasked emits a masked scratchpad store (reduction trees).
func stsMasked(src isa.Reg, mask func(c *isa.Cursor) uint32) Emit {
	return func(buf *isa.WarpInstr, c *isa.Cursor) {
		buf.Op = isa.OpStoreShared
		buf.Src = [3]isa.Reg{src}
		buf.Mask = mask(c)
		buf.BankConflict = 1
	}
}

// atom emits a global atomic RMW with arbitrary per-lane addressing.
func atom(dst isa.Reg, lanes Lanes) Emit {
	return func(buf *isa.WarpInstr, c *isa.Cursor) {
		buf.Op = isa.OpAtomicGlobal
		buf.Dst = dst
		buf.Mask = isa.FullMask
		lanes(c, &buf.Addrs)
	}
}

// setGroup writes addr to group g of a's lanes, in groups of n: lanes g*n
// up to g*n+n-1. The suite's gathers and atomics address clusters of lanes.
func setGroup(a *[isa.WarpSize]uint32, g, n int, addr uint32) {
	for l := g * n; l < g*n+n; l++ {
		a[l] = addr
	}
}

// bar emits a CTA barrier.
func bar() Emit {
	return func(buf *isa.WarpInstr, _ *isa.Cursor) {
		buf.Op = isa.OpBarrier
		buf.Mask = isa.FullMask
	}
}

// branch emits a control instruction (issue-slot cost of the pre-lowered
// loop back-edge).
func branch() Emit {
	return func(buf *isa.WarpInstr, _ *isa.Cursor) {
		buf.Op = isa.OpBranch
		buf.Mask = isa.FullMask
	}
}

// ---- deterministic pseudo-randomness ----

// xs32 advances an xorshift32 state; never returns 0 for nonzero input.
// Used instead of math/rand so instruction streams are identical across Go
// versions and runs.
func xs32(s uint32) uint32 {
	s ^= s << 13
	s ^= s >> 17
	s ^= s << 5
	return s
}

// hash2 mixes two identifiers into a nonzero seed.
func hash2(a, b int) uint32 {
	s := uint32(a)*0x9E3779B9 + uint32(b)*0x85EBCA6B + 1
	return xs32(s)
}

// hash3 mixes three identifiers into a nonzero seed.
func hash3(a, b, c int) uint32 {
	return xs32(hash2(a, b) ^ (uint32(c)*0xC2B2AE35 + 1))
}

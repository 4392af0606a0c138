package workloads

import "gpusched/internal/isa"

// Emit is one static instruction of a loopProgram: a constant header, plus
// functions of the warp's cursor only for the parts that read it. Each
// reads the warp's identity (c.CTA, c.Warp) and loop iteration (c.Iter),
// nothing else of the cursor. An instruction with no function decodes with
// one copy of its header.
type Emit struct {
	// in is the header; its Mask is the active mask when mask is nil.
	in isa.Instr
	// mask, if set, gives the active mask (divergence modeling).
	mask func(c *isa.Cursor) uint32
	// base, if set, makes a global op affine: lane l addresses
	// base(c) + l*stride.
	base   func(c *isa.Cursor) uint32
	stride uint32
	// lanes, if set, writes a gather's or an atomic's 32 lane addresses.
	lanes Lanes
}

// Lanes writes the 32 lane addresses of a gather or an atomic for the warp
// at c, in one call per instruction.
type Lanes func(c *isa.Cursor, a *[isa.WarpSize]uint32)

// loopProgram is the program shape every workload kernel uses: a prologue
// executed once, a body repeated iters times, an epilogue, then EXIT. It is
// a template, built once per workload and scale and shared by every warp:
// it materializes nothing and never changes, and each instruction is
// produced on demand from its Emit and the warp's cursor. Decode copies the
// header and calls at most the mask function; only Next, which the LDST
// unit calls for a global op it accepts, runs the address functions.
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

// exit is the instruction a loopProgram ends with.
var exit = Emit{in: isa.Instr{Op: isa.OpExit, Mask: isa.FullMask}}

// at returns the Emit at c, nil once the warp has exited, without stepping
// past it. Inside the body, where a warp spends most of its instructions,
// that is one index; seek handles every other place.
func (p *loopProgram) at(c *isa.Cursor) *Emit {
	if c.Phase == inBody && c.Iter < p.iters && c.Pos < len(p.body) {
		return &p.body[c.Pos]
	}
	return p.seek(c)
}

// seek moves c over the sections it has finished and returns the Emit at
// it, nil once the warp has exited.
func (p *loopProgram) seek(c *isa.Cursor) *Emit {
	for {
		switch c.Phase {
		case inPrologue:
			if c.Pos < len(p.prologue) {
				return &p.prologue[c.Pos]
			}
			c.Phase, c.Pos = inBody, 0
		case inBody:
			if c.Iter < p.iters && len(p.body) > 0 {
				return &p.body[c.Pos]
			}
			c.Phase, c.Pos = inEpilogue, 0
		case inEpilogue:
			if c.Pos < len(p.epilogue) {
				return &p.epilogue[c.Pos]
			}
			c.Phase = atExit
		case atExit:
			return &exit
		default:
			return nil
		}
	}
}

// advance steps c past the Emit at returned.
func (p *loopProgram) advance(c *isa.Cursor) {
	switch c.Phase {
	case inBody:
		if c.Pos++; c.Pos == len(p.body) {
			c.Pos = 0
			c.Iter++
		}
	case atExit:
		c.Phase = exited
	default:
		c.Pos++
	}
}

// Decode implements isa.Program.
func (p *loopProgram) Decode(c *isa.Cursor, in *isa.Instr) bool {
	e := p.at(c)
	if e == nil {
		return false
	}
	*in = e.in
	if e.mask != nil {
		in.Mask = e.mask(c)
	}
	p.advance(c)
	return true
}

// Next implements isa.Program.
func (p *loopProgram) Next(c *isa.Cursor, buf *isa.WarpInstr) bool {
	e := p.at(c)
	if e == nil {
		return false
	}
	buf.Instr = e.in
	if e.mask != nil {
		buf.Mask = e.mask(c)
	}
	buf.Affine, buf.Base, buf.Stride = false, 0, 0
	switch {
	case e.base != nil:
		isa.FillLinear(buf, e.base(c), e.stride)
	case e.lanes != nil:
		e.lanes(c, &buf.Addrs)
	}
	p.advance(c)
	return true
}

// Regs implements isa.Program.
func (p *loopProgram) Regs() int { return p.regs }

// instrPerWarp returns the dynamic instruction count the program will emit.
func (p *loopProgram) instrPerWarp() int {
	return len(p.prologue) + p.iters*len(p.body) + len(p.epilogue) + 1
}

// shared returns p as its kernel's one program, which every warp runs. It
// counts p's register footprint first, while p is still private: an Emit's
// registers are in its constant header, whatever the cursor (EXIT names
// none).
func shared(p *loopProgram) *loopProgram {
	p.regs = 1
	for _, sec := range [][]Emit{p.prologue, p.body, p.epilogue} {
		for i := range sec {
			p.regs = max(p.regs, sec[i].in.Regs())
		}
	}
	return p
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

// header is an instruction's constant part, all lanes active.
func header(op isa.Op, dst isa.Reg, srcs ...isa.Reg) isa.Instr {
	in := isa.Instr{Op: op, Dst: dst, Mask: isa.FullMask}
	copy(in.Src[:], srcs)
	return in
}

// alu emits an arithmetic op dst <- f(srcs), all lanes active.
func alu(op isa.Op, dst isa.Reg, srcs ...isa.Reg) Emit {
	return Emit{in: header(op, dst, srcs...)}
}

// aluMasked emits an arithmetic op whose active mask depends on the warp
// and iteration (divergence modeling).
func aluMasked(op isa.Op, dst isa.Reg, mask func(c *isa.Cursor) uint32, srcs ...isa.Reg) Emit {
	return Emit{in: header(op, dst, srcs...), mask: mask}
}

// ldg emits a perfectly-coalesced global load: lane l reads base(c)+4l.
func ldg(dst isa.Reg, base func(c *isa.Cursor) uint32) Emit {
	return ldgStride(dst, base, 4)
}

// ldgStride emits a global load whose lane l reads base(c)+l*stride.
func ldgStride(dst isa.Reg, base func(c *isa.Cursor) uint32, stride uint32) Emit {
	return Emit{in: header(isa.OpLoadGlobal, dst), base: base, stride: stride}
}

// ldgMasked is ldg with a per-warp, per-iteration active mask.
func ldgMasked(dst isa.Reg, mask, base func(c *isa.Cursor) uint32) Emit {
	return Emit{in: header(isa.OpLoadGlobal, dst), mask: mask, base: base, stride: 4}
}

// gather emits a global load with arbitrary per-lane addressing and, unless
// mask is nil, a per-warp, per-iteration active mask.
func gather(dst isa.Reg, mask func(c *isa.Cursor) uint32, lanes Lanes) Emit {
	return Emit{in: header(isa.OpLoadGlobal, dst), mask: mask, lanes: lanes}
}

// stg emits a perfectly-coalesced global store of src.
func stg(src isa.Reg, base func(c *isa.Cursor) uint32) Emit {
	return Emit{in: header(isa.OpStoreGlobal, 0, src), base: base, stride: 4}
}

// lds emits a scratchpad load with the given bank-conflict degree.
func lds(dst isa.Reg, conflict uint8) Emit {
	e := Emit{in: header(isa.OpLoadShared, dst)}
	e.in.BankConflict = conflict
	return e
}

// sts emits a scratchpad store with the given bank-conflict degree.
func sts(src isa.Reg, conflict uint8) Emit {
	e := Emit{in: header(isa.OpStoreShared, 0, src)}
	e.in.BankConflict = conflict
	return e
}

// stsMasked emits a masked scratchpad store (reduction trees).
func stsMasked(src isa.Reg, mask func(c *isa.Cursor) uint32) Emit {
	e := sts(src, 1)
	e.mask = mask
	return e
}

// atom emits a global atomic RMW with arbitrary per-lane addressing.
func atom(dst isa.Reg, lanes Lanes) Emit {
	return Emit{in: header(isa.OpAtomicGlobal, dst), lanes: lanes}
}

// setGroup writes addr to group g of a's lanes, in groups of n: lanes g*n
// up to g*n+n-1. The suite's gathers and atomics address clusters of lanes.
func setGroup(a *[isa.WarpSize]uint32, g, n int, addr uint32) {
	for l := g * n; l < g*n+n; l++ {
		a[l] = addr
	}
}

// bar emits a CTA barrier.
func bar() Emit { return Emit{in: header(isa.OpBarrier, 0)} }

// branch emits a control instruction (issue-slot cost of the pre-lowered
// loop back-edge).
func branch() Emit { return Emit{in: header(isa.OpBranch, 0)} }

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

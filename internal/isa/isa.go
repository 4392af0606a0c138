// Package isa defines the warp-level instruction model executed by the
// simulated SIMT cores.
//
// The simulator is trace-shaped: kernels are expressed as per-warp streams of
// dynamic instructions, each read in two parts. The header (Instr: opcode,
// registers, active mask) is what every pipeline stage reads, and the core
// decodes it at fetch; the addresses of a global memory operation (a lane
// formula or one per lane, in WarpInstr) are produced only when the LDST
// unit accepts the issued op.
// Control flow is pre-lowered by the workload generators: loops arrive
// unrolled and branch divergence is expressed through active masks, so the
// core never re-executes or re-converges. This keeps the core model focused
// on what CTA scheduling actually interacts with: issue bandwidth, operand
// dependencies, and the memory system.
package isa

import (
	"fmt"
	"math/bits"
)

// Op enumerates the opcode classes the timing model distinguishes.
// Classes, not exact SASS opcodes: two instructions with the same latency,
// issue port, and memory behaviour are indistinguishable to a cycle-level
// scheduler study.
type Op uint8

const (
	// OpNop consumes an issue slot and nothing else.
	OpNop Op = iota
	// OpIAlu is a single-cycle-throughput integer ALU operation
	// (add/sub/logic/shift/compare, address arithmetic).
	OpIAlu
	// OpFAlu is a single-precision floating-point operation
	// (FADD/FMUL/FFMA) executed on the SP units.
	OpFAlu
	// OpSfu is a special-function operation (rsqrt, sin, exp). Lower
	// throughput, higher latency than the SP pipeline.
	OpSfu
	// OpLoadGlobal is a global-memory load. Per-lane addresses are
	// coalesced into cache-line transactions and sent through
	// L1 -> interconnect -> L2 -> DRAM.
	OpLoadGlobal
	// OpStoreGlobal is a global-memory store. Fermi-style: write-through
	// past L1 (no-write-allocate), write-back at L2.
	OpStoreGlobal
	// OpLoadShared reads per-SM scratchpad memory; subject to bank
	// conflicts but never leaves the core.
	OpLoadShared
	// OpStoreShared writes scratchpad memory.
	OpStoreShared
	// OpAtomicGlobal is a global read-modify-write resolved at the L2
	// partition that owns the line.
	OpAtomicGlobal
	// OpBranch consumes an issue slot for the (pre-lowered) control
	// instruction. No pipeline flush is modeled; divergence shows up as
	// active masks on subsequent instructions.
	OpBranch
	// OpBarrier blocks the warp until every live warp in its CTA has
	// arrived at the same barrier.
	OpBarrier
	// OpExit retires the warp. A CTA completes when all its warps exit.
	OpExit

	numOps
)

// NumOps is the number of distinct opcode classes, for sizing per-op tables.
const NumOps = int(numOps)

var opNames = [NumOps]string{
	OpNop:          "NOP",
	OpIAlu:         "IALU",
	OpFAlu:         "FALU",
	OpSfu:          "SFU",
	OpLoadGlobal:   "LD.G",
	OpStoreGlobal:  "ST.G",
	OpLoadShared:   "LD.S",
	OpStoreShared:  "ST.S",
	OpAtomicGlobal: "ATOM.G",
	OpBranch:       "BRA",
	OpBarrier:      "BAR",
	OpExit:         "EXIT",
}

// String returns the mnemonic for the opcode class.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsMemory reports whether the opcode is handled by the LDST pipeline
// (shared, global, or atomic).
func (o Op) IsMemory() bool {
	switch o {
	case OpLoadGlobal, OpStoreGlobal, OpLoadShared, OpStoreShared, OpAtomicGlobal:
		return true
	}
	return false
}

// IsGlobal reports whether the opcode accesses the global address space and
// therefore traverses L1/interconnect/L2/DRAM.
func (o Op) IsGlobal() bool {
	switch o {
	case OpLoadGlobal, OpStoreGlobal, OpAtomicGlobal:
		return true
	}
	return false
}

// WritesRegister reports whether the opcode produces a register result that
// the scoreboard must track.
func (o Op) WritesRegister() bool {
	switch o {
	case OpIAlu, OpFAlu, OpSfu, OpLoadGlobal, OpLoadShared, OpAtomicGlobal:
		return true
	}
	return false
}

// Reg identifies an architectural register within a warp. Register 0 is the
// zero register: reads from it never stall and writes to it are discarded,
// which lets generators express "no destination" uniformly.
type Reg uint8

// MaxRegs bounds the per-thread architectural register space the scoreboard
// tracks. 64 matches the Fermi-class per-thread limit.
const MaxRegs = 64

// WarpSize is the number of lanes per warp. Fixed at 32 across the code base
// (NVIDIA-style); several bitmask representations depend on it.
const WarpSize = 32

// FullMask is the active mask with all 32 lanes enabled.
const FullMask uint32 = 0xFFFFFFFF

// Instr is the decoded part of one dynamic warp instruction: the 12 bytes
// every pipeline stage reads. The core keeps one per warp (the fetched,
// unissued instruction) and one per queued memory instruction, decoded by
// Program.Decode; for a global op it says which lanes are active but not
// where they point, which only the LDST unit reads (WarpInstr).
type Instr struct {
	// Op is the opcode class; it selects the pipeline and latency.
	Op Op
	// Dst is the destination register (0 = none even for writing ops).
	Dst Reg
	// Src lists up to three source registers; 0 entries are ignored.
	Src [3]Reg
	// BankConflict is a shared op's bank-conflict degree: the number of
	// serialized passes the LDST unit charges it, 0 counting as 1. The
	// unit never reads a shared op's lanes.
	BankConflict uint8
	// Mask is the active-lane mask. Inactive lanes contribute no memory
	// accesses. An instruction with Mask==0 is still issued (it models a
	// fully-predicated-off instruction occupying an issue slot).
	Mask uint32
}

// ActiveLanes returns the number of enabled lanes.
func (in *Instr) ActiveLanes() int {
	return bits.OnesCount32(in.Mask)
}

// Regs returns one more than the highest register the instruction names as
// its destination or a source (at least 1).
func (in *Instr) Regs() int {
	return int(max(in.Dst, in.Src[0], in.Src[1], in.Src[2])) + 1
}

// WarpInstr is one whole dynamic instruction for one warp: the header
// (Instr) plus a global op's addresses, as a lane formula or one per lane.
// Program.Next fills one; only the LDST unit asks for it, when it accepts an
// issued global op, and it coalesces the lanes at once into line
// transactions. The struct embeds its lane array instead of pointing to a
// heap slice, so the unit reuses one buffer for every warp of its SM. Next
// writes every field but Addrs, and for a global op that is not Affine the
// address of every active lane; the lane array is never cleared, so a lane
// it does not write holds another instruction's address.
type WarpInstr struct {
	Instr
	// Affine marks a global op whose lane l reads or writes
	// Base + l*Stride (uint32 arithmetic, wrapping); Addrs is not read.
	Affine bool
	// Base and Stride are an Affine op's lane formula.
	Base, Stride uint32
	// Addrs holds the per-lane byte addresses of a global op that is not
	// Affine: offsets into the kernel's flat global address space. Only
	// entries whose lane bit is set in Mask are meaningful.
	Addrs [WarpSize]uint32
}

// Addr returns lane's address: from the formula of an Affine op, else from
// Addrs.
func (wi *WarpInstr) Addr(lane int) uint32 {
	if wi.Affine {
		return wi.Base + uint32(lane)*wi.Stride
	}
	return wi.Addrs[lane]
}

// FillLinear makes wi affine: lane l's address is base + l*stride. It
// writes no lane of Addrs.
func FillLinear(wi *WarpInstr, base, stride uint32) {
	wi.Affine, wi.Base, wi.Stride = true, base, stride
}

// Cursor is one warp's position in a Program. Programs are immutable and
// shared by every warp that runs them, so a warp's state is its cursor: its
// identity, which the program's address arithmetic reads, and how far it has
// got. The core keeps one by value per warp; a cursor with only CTA and Warp
// set is at the start of the stream.
type Cursor struct {
	// CTA is the linear CTA index within the grid; Warp is the warp's
	// index within its CTA.
	CTA, Warp int
	// Phase, Iter and Pos locate the next instruction: a section of the
	// program, a loop iteration and an index. What they mean is up to
	// the program.
	Phase     uint8
	Iter, Pos int
}

// Program is a lazily-evaluated warp instruction stream, read two ways.
// Decode writes the header of the instruction at c into in, advances c past
// it, and reports whether there was one; it runs no address code. The core
// decodes every instruction a warp fetches this way. Next does the same
// into buf with the instruction's addresses too; the LDST unit calls it,
// at the cursor Decode read a global op from, when it accepts the issued
// op. After either returns false the warp has terminated (generators emit
// OpExit as their final instruction, but the core also treats stream end
// as exit). At equal cursors the two give the same header and leave equal
// cursors.
//
// Implementations never change themselves, so one program may serve any
// number of warps and simulations at once, and must be deterministic:
// experiments compare scheduler policies on identical instruction streams,
// so equal cursors must yield equal instructions.
//
// Regs is the program's register footprint: one more than the highest
// register any instruction it produces names, for any cursor (at least 1).
// The core sizes each warp's scoreboard to it, so a program must not name a
// register at or above it. It is what the program names, not what its
// kernel reserves (kernel.Spec.RegsPerThread, an occupancy input only).
type Program interface {
	Decode(c *Cursor, in *Instr) bool
	Next(c *Cursor, buf *WarpInstr) bool
	Regs() int
}

// SliceProgram is a Program backed by pre-built instructions; the cursor's
// Pos indexes them. It is the form of tests and of custom kernels (Builder,
// NewSliceProgram). It keeps each instruction's header and lane formula, and
// 32 lane addresses only for a global op that is not affine.
type SliceProgram struct {
	instrs []Instr
	addrs  []sliceAddr // one per instruction
	lanes  [][WarpSize]uint32
}

// sliceAddr is the address part of one SliceProgram instruction: the lane
// formula, and for a global op that is not affine, 1 + the index of its
// lanes in the program's lane arrays (0: none).
type sliceAddr struct {
	affine       bool
	base, stride uint32
	lanes        int32
}

// NewSliceProgram returns the program of instrs, in order.
func NewSliceProgram(instrs ...WarpInstr) *SliceProgram {
	var b Builder
	for _, wi := range instrs {
		b.Append(wi)
	}
	return &b.p
}

// Regs implements Program: the highest register over the program, plus one.
func (p *SliceProgram) Regs() int {
	n := 1
	for i := range p.instrs {
		n = max(n, p.instrs[i].Regs())
	}
	return n
}

// Decode implements Program.
func (p *SliceProgram) Decode(c *Cursor, in *Instr) bool {
	if c.Pos >= len(p.instrs) {
		return false
	}
	*in = p.instrs[c.Pos]
	c.Pos++
	return true
}

// Next implements Program.
func (p *SliceProgram) Next(c *Cursor, buf *WarpInstr) bool {
	if c.Pos >= len(p.instrs) {
		return false
	}
	a := &p.addrs[c.Pos]
	buf.Instr = p.instrs[c.Pos]
	buf.Affine, buf.Base, buf.Stride = a.affine, a.base, a.stride
	if a.lanes > 0 {
		buf.Addrs = p.lanes[a.lanes-1]
	}
	c.Pos++
	return true
}

// PerWarp is the program of a kernel whose warps run programs of their own:
// warp w of CTA c runs Warps[c*WarpsPerCTA+w] from its own cursor. Build it
// with NewPerWarp, which counts the widest footprint once.
type PerWarp struct {
	Warps       []Program
	WarpsPerCTA int
	regs        int
}

// NewPerWarp returns the program whose warps run warps, warpsPerCTA to a
// CTA, in (CTA, warp) order.
func NewPerWarp(warpsPerCTA int, warps []Program) *PerWarp {
	p := &PerWarp{Warps: warps, WarpsPerCTA: warpsPerCTA, regs: 1}
	for _, w := range warps {
		p.regs = max(p.regs, w.Regs())
	}
	return p
}

// Regs implements Program: the widest footprint among Warps.
func (p *PerWarp) Regs() int { return p.regs }

// Decode implements Program: it steps the cursor's warp's own program.
func (p *PerWarp) Decode(c *Cursor, in *Instr) bool {
	return p.Warps[c.CTA*p.WarpsPerCTA+c.Warp].Decode(c, in)
}

// Next implements Program: it steps the cursor's warp's own program.
func (p *PerWarp) Next(c *Cursor, buf *WarpInstr) bool {
	return p.Warps[c.CTA*p.WarpsPerCTA+c.Warp].Next(c, buf)
}

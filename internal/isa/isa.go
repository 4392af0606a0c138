// Package isa defines the warp-level instruction model executed by the
// simulated SIMT cores.
//
// The simulator is trace-shaped: kernels are expressed as per-warp streams of
// WarpInstr records. Each record is one dynamic instruction for one warp —
// the static opcode plus the per-lane state (active mask, the addresses of a
// global memory operation, as a lane formula or one per lane) that the core
// and memory system need for timing.
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

// WarpInstr is one dynamic instruction for one warp. Programs fill these in
// place: the core reuses one fetch buffer for every warp of an SM, and the
// struct deliberately embeds its per-lane address array instead of pointing
// to a heap slice. A program writes every header field (Reset clears them
// all) and, for a global op that is not Affine, the address of every active
// lane; the lane array is never cleared, so a lane it does not write holds
// another instruction's address. The core keeps only what it decodes, never
// the lanes: when a global op issues, the LDST unit calls Next again at the
// cursor it fetched the op from and coalesces what that gives.
type WarpInstr struct {
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
	// Affine marks a global op whose lane l reads or writes
	// Base + l*Stride (uint32 arithmetic, wrapping); Addrs is not read.
	Affine bool
	// Mask is the active-lane mask. Inactive lanes contribute no memory
	// accesses. An instruction with Mask==0 is still issued (it models a
	// fully-predicated-off instruction occupying an issue slot).
	Mask uint32
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

// ActiveLanes returns the number of enabled lanes.
func (wi *WarpInstr) ActiveLanes() int {
	return bits.OnesCount32(wi.Mask)
}

// Regs returns one more than the highest register the instruction names as
// its destination or a source (at least 1).
func (wi *WarpInstr) Regs() int {
	return int(max(wi.Dst, wi.Src[0], wi.Src[1], wi.Src[2])) + 1
}

// Reset clears the header, every field but Addrs, so a reused buffer never
// leaks another instruction's op, registers, mask or formula. It leaves the
// 128-byte lane array alone: only a non-affine global op reads it, and that
// op writes its active lanes itself.
func (wi *WarpInstr) Reset() {
	wi.Op, wi.Dst, wi.Src, wi.BankConflict = OpNop, 0, [3]Reg{}, 0
	wi.Affine, wi.Mask, wi.Base, wi.Stride = false, 0, 0, 0
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

// Program is a lazily-evaluated warp instruction stream. Next fills buf
// with the instruction at c, advances c past it, and reports whether one was
// produced; after it returns false the warp has terminated (generators emit
// OpExit as their final instruction, but the core also treats stream end as
// exit).
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
	Next(c *Cursor, buf *WarpInstr) bool
	Regs() int
}

// SliceProgram is a Program backed by a pre-built instruction slice; the
// cursor's Pos indexes it. It is the convenient form for tests and for
// short fixed kernels.
type SliceProgram struct {
	Instrs []WarpInstr
}

// Regs implements Program: the highest register over Instrs, plus one.
func (p *SliceProgram) Regs() int {
	n := 1
	for i := range p.Instrs {
		n = max(n, p.Instrs[i].Regs())
	}
	return n
}

// Next implements Program.
func (p *SliceProgram) Next(c *Cursor, buf *WarpInstr) bool {
	if c.Pos >= len(p.Instrs) {
		return false
	}
	*buf = p.Instrs[c.Pos]
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

// Next implements Program: it steps the cursor's warp's own program.
func (p *PerWarp) Next(c *Cursor, buf *WarpInstr) bool {
	return p.Warps[c.CTA*p.WarpsPerCTA+c.Warp].Next(c, buf)
}

package isa

// Builder accumulates instructions for a SliceProgram. It exists for tests
// and short fixed kernels; the real workloads generate each instruction on
// demand to avoid materializing long streams. It keeps what a SliceProgram
// keeps: a header and a lane formula per instruction, and 32 lanes only for
// a gather or an atomic.
type Builder struct {
	p SliceProgram
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Len returns the number of instructions appended so far.
func (b *Builder) Len() int { return len(b.p.instrs) }

// Reset empties the builder, keeping its buffers for the next program.
func (b *Builder) Reset() {
	b.p.instrs, b.p.addrs, b.p.lanes = b.p.instrs[:0], b.p.addrs[:0], b.p.lanes[:0]
}

// Append adds a fully-specified instruction. Its lanes are kept only for a
// global op that is not Affine, the only op whose lanes are read.
func (b *Builder) Append(wi WarpInstr) *Builder {
	a := sliceAddr{affine: wi.Affine, base: wi.Base, stride: wi.Stride}
	if wi.Op.IsGlobal() && !wi.Affine {
		b.p.lanes = append(b.p.lanes, wi.Addrs)
		a.lanes = int32(len(b.p.lanes))
	}
	return b.add(wi.Instr, a)
}

func (b *Builder) add(in Instr, a sliceAddr) *Builder {
	b.p.instrs = append(b.p.instrs, in)
	b.p.addrs = append(b.p.addrs, a)
	return b
}

// op appends an instruction with no addresses, all lanes active.
func (b *Builder) op(op Op, dst, src Reg, conflict uint8) *Builder {
	return b.add(Instr{Op: op, Dst: dst, Src: [3]Reg{src}, BankConflict: conflict, Mask: FullMask}, sliceAddr{})
}

// IAlu appends an integer ALU op dst <- f(srcs).
func (b *Builder) IAlu(dst Reg, srcs ...Reg) *Builder {
	return b.alu(OpIAlu, dst, srcs)
}

// FAlu appends a floating-point op dst <- f(srcs).
func (b *Builder) FAlu(dst Reg, srcs ...Reg) *Builder {
	return b.alu(OpFAlu, dst, srcs)
}

// Sfu appends a special-function op dst <- f(srcs).
func (b *Builder) Sfu(dst Reg, srcs ...Reg) *Builder {
	return b.alu(OpSfu, dst, srcs)
}

func (b *Builder) alu(op Op, dst Reg, srcs []Reg) *Builder {
	in := Instr{Op: op, Dst: dst, Mask: FullMask}
	copy(in.Src[:], srcs)
	return b.add(in, sliceAddr{})
}

// LoadGlobal appends a global load of one 4-byte word per lane starting at
// base, contiguous across lanes (the perfectly-coalesced pattern).
func (b *Builder) LoadGlobal(dst Reg, base uint32) *Builder {
	return b.LoadGlobalStride(dst, base, 4)
}

// LoadGlobalStride appends a global load with the given byte stride between
// consecutive lanes (stride > 32 bytes produces uncoalesced traffic).
func (b *Builder) LoadGlobalStride(dst Reg, base, stride uint32) *Builder {
	return b.add(Instr{Op: OpLoadGlobal, Dst: dst, Mask: FullMask}, sliceAddr{affine: true, base: base, stride: stride})
}

// LoadGlobalAddrs appends a global load with explicit per-lane addresses.
func (b *Builder) LoadGlobalAddrs(dst Reg, addrs [WarpSize]uint32) *Builder {
	return b.Append(WarpInstr{Instr: Instr{Op: OpLoadGlobal, Dst: dst, Mask: FullMask}, Addrs: addrs})
}

// StoreGlobal appends a coalesced global store.
func (b *Builder) StoreGlobal(src Reg, base uint32) *Builder {
	return b.add(Instr{Op: OpStoreGlobal, Src: [3]Reg{src}, Mask: FullMask}, sliceAddr{affine: true, base: base, stride: 4})
}

// LoadShared appends a scratchpad load with the given bank-conflict degree
// (1 = conflict-free).
func (b *Builder) LoadShared(dst Reg, conflict uint8) *Builder {
	return b.op(OpLoadShared, dst, 0, conflict)
}

// StoreShared appends a scratchpad store with the given bank-conflict degree.
func (b *Builder) StoreShared(src Reg, conflict uint8) *Builder {
	return b.op(OpStoreShared, 0, src, conflict)
}

// Atomic appends a global atomic read-modify-write on the addressed words.
func (b *Builder) Atomic(dst Reg, addrs [WarpSize]uint32, mask uint32) *Builder {
	return b.Append(WarpInstr{Instr: Instr{Op: OpAtomicGlobal, Dst: dst, Mask: mask}, Addrs: addrs})
}

// Branch appends a control instruction (issue-slot cost only).
func (b *Builder) Branch() *Builder { return b.op(OpBranch, 0, 0, 0) }

// Barrier appends a CTA-wide barrier.
func (b *Builder) Barrier() *Builder { return b.op(OpBarrier, 0, 0, 0) }

// Exit appends warp termination.
func (b *Builder) Exit() *Builder { return b.op(OpExit, 0, 0, 0) }

// Build returns the accumulated stream as a fresh SliceProgram. The builder
// may be reused; the returned program owns a copy, no larger than it needs.
func (b *Builder) Build() *SliceProgram {
	return &SliceProgram{instrs: clone(b.p.instrs), addrs: clone(b.p.addrs), lanes: clone(b.p.lanes)}
}

// clone returns a copy of s in an array of its own, nil if s is empty.
func clone[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

package isa

// Builder accumulates WarpInstr records for a SliceProgram. It exists for
// tests and short fixed kernels; the real workloads generate each
// instruction on demand to avoid materializing long streams.
type Builder struct {
	instrs []WarpInstr
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Len returns the number of instructions appended so far.
func (b *Builder) Len() int { return len(b.instrs) }

// Append adds a fully-specified instruction.
func (b *Builder) Append(wi WarpInstr) *Builder {
	b.instrs = append(b.instrs, wi)
	return b
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
	wi := WarpInstr{Op: op, Dst: dst, Mask: FullMask}
	for i, s := range srcs {
		if i >= len(wi.Src) {
			break
		}
		wi.Src[i] = s
	}
	b.instrs = append(b.instrs, wi)
	return b
}

// LoadGlobal appends a global load of one 4-byte word per lane starting at
// base, contiguous across lanes (the perfectly-coalesced pattern).
func (b *Builder) LoadGlobal(dst Reg, base uint32) *Builder {
	return b.LoadGlobalStride(dst, base, 4)
}

// LoadGlobalStride appends a global load with the given byte stride between
// consecutive lanes (stride > 32 bytes produces uncoalesced traffic).
func (b *Builder) LoadGlobalStride(dst Reg, base, stride uint32) *Builder {
	wi := WarpInstr{Op: OpLoadGlobal, Dst: dst, Mask: FullMask}
	FillLinear(&wi, base, stride)
	b.instrs = append(b.instrs, wi)
	return b
}

// LoadGlobalAddrs appends a global load with explicit per-lane addresses.
func (b *Builder) LoadGlobalAddrs(dst Reg, addrs [WarpSize]uint32) *Builder {
	b.instrs = append(b.instrs, WarpInstr{Op: OpLoadGlobal, Dst: dst, Mask: FullMask, Addrs: addrs})
	return b
}

// StoreGlobal appends a coalesced global store.
func (b *Builder) StoreGlobal(src Reg, base uint32) *Builder {
	wi := WarpInstr{Op: OpStoreGlobal, Src: [3]Reg{src}, Mask: FullMask}
	FillLinear(&wi, base, 4)
	b.instrs = append(b.instrs, wi)
	return b
}

// LoadShared appends a scratchpad load with the given bank-conflict degree
// (1 = conflict-free).
func (b *Builder) LoadShared(dst Reg, conflict uint8) *Builder {
	b.instrs = append(b.instrs, WarpInstr{Op: OpLoadShared, Dst: dst, Mask: FullMask, BankConflict: conflict})
	return b
}

// StoreShared appends a scratchpad store with the given bank-conflict degree.
func (b *Builder) StoreShared(src Reg, conflict uint8) *Builder {
	b.instrs = append(b.instrs, WarpInstr{Op: OpStoreShared, Src: [3]Reg{src}, Mask: FullMask, BankConflict: conflict})
	return b
}

// Atomic appends a global atomic read-modify-write on the addressed words.
func (b *Builder) Atomic(dst Reg, addrs [WarpSize]uint32, mask uint32) *Builder {
	b.instrs = append(b.instrs, WarpInstr{Op: OpAtomicGlobal, Dst: dst, Mask: mask, Addrs: addrs})
	return b
}

// Branch appends a control instruction (issue-slot cost only).
func (b *Builder) Branch() *Builder {
	b.instrs = append(b.instrs, WarpInstr{Op: OpBranch, Mask: FullMask})
	return b
}

// Barrier appends a CTA-wide barrier.
func (b *Builder) Barrier() *Builder {
	b.instrs = append(b.instrs, WarpInstr{Op: OpBarrier, Mask: FullMask})
	return b
}

// Exit appends warp termination.
func (b *Builder) Exit() *Builder {
	b.instrs = append(b.instrs, WarpInstr{Op: OpExit, Mask: FullMask})
	return b
}

// Build returns the accumulated stream as a fresh SliceProgram. The builder
// may be reused; the returned program owns a copy.
func (b *Builder) Build() *SliceProgram {
	out := make([]WarpInstr, len(b.instrs))
	copy(out, b.instrs)
	return &SliceProgram{Instrs: out}
}

// FillLinear makes wi affine: lane l's address is base + l*stride. It
// writes no lane of Addrs.
func FillLinear(wi *WarpInstr, base, stride uint32) {
	wi.Affine, wi.Base, wi.Stride = true, base, stride
}

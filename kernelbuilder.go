package gpusched

import (
	"fmt"

	"gpusched/internal/isa"
	"gpusched/internal/kernel"
)

// KernelBuilder assembles a custom kernel for the simulator: a grid of
// CTAs whose warps all execute a program you describe instruction by
// instruction. Each warp's program is generated by a callback so address
// patterns can depend on the CTA and warp identity — that dependence is
// what gives a kernel its scheduling behaviour. Build runs the callback
// once per warp; the kernel keeps the programs (isa.PerWarp), each a header
// and a lane formula per instruction, with 32 lane addresses only for
// LoadGlobalLanes and Atomic.
//
//	k := gpusched.NewKernelBuilder("saxpy", 120, 256).
//	    Regs(16).
//	    Program(func(ctaID, warp int, p *gpusched.ProgramBuilder) {
//	        base := uint32((ctaID*8 + warp) * 128)
//	        p.LoadGlobal(1, base)
//	        p.LoadGlobal(2, 1<<28+base)
//	        p.FMul(3, 1, 2)
//	        p.StoreGlobal(3, 2<<28+base)
//	    }).
//	    Build()
type KernelBuilder struct {
	spec    kernel.Spec
	program func(ctaID, warp int, p *ProgramBuilder)
}

// NewKernelBuilder starts a kernel named name with ctas thread blocks of
// threadsPerCTA threads (must be a multiple of 32).
func NewKernelBuilder(name string, ctas, threadsPerCTA int) *KernelBuilder {
	return &KernelBuilder{spec: kernel.Spec{
		Name:          name,
		Grid:          ctas,
		Block:         threadsPerCTA,
		RegsPerThread: 16,
	}}
}

// Regs sets the per-thread register demand (occupancy pressure).
func (b *KernelBuilder) Regs(n int) *KernelBuilder {
	b.spec.RegsPerThread = n
	return b
}

// SharedMem sets the per-CTA scratchpad demand in bytes.
func (b *KernelBuilder) SharedMem(bytes int) *KernelBuilder {
	b.spec.SharedMemPerCTA = bytes
	return b
}

// Program sets the per-warp program generator. The callback must be
// deterministic in (ctaID, warp): Build runs it once for every warp of the
// grid and keeps what it builds as the kernel's program, so a run never
// calls it. p is valid only during the call: Build reuses it for the next
// warp.
func (b *KernelBuilder) Program(fn func(ctaID, warp int, p *ProgramBuilder)) *KernelBuilder {
	b.program = fn
	return b
}

// Build builds every warp's program, rejecting one that names a register
// the core cannot track (isa.MaxRegs and up) or gives an ALU op more
// sources than an instruction holds, and validates the kernel.
func (b *KernelBuilder) Build() (Kernel, error) {
	if b.spec.Grid < 1 {
		return Kernel{}, fmt.Errorf("gpusched: kernel %s: grid must have at least 1 CTA", b.spec.Name)
	}
	spec := b.spec
	nw := spec.WarpsPerCTA()
	warps := make([]isa.Program, 0, spec.NumCTAs()*nw)
	// One builder serves every warp: each program is copied out of it at
	// its exact size, so the grid's programs share no growth slack.
	pb := &ProgramBuilder{b: isa.NewBuilder()}
	for cta := 0; cta < spec.NumCTAs(); cta++ {
		for w := 0; w < nw; w++ {
			pb.b.Reset()
			pb.wideSrcs = 0
			if b.program != nil {
				b.program(cta, w, pb)
			}
			if pb.wideSrcs > 0 {
				return Kernel{}, fmt.Errorf("gpusched: kernel %s: CTA %d warp %d: instruction %d has %d sources, above the %d an instruction holds",
					spec.Name, cta, w, pb.wideAt, pb.wideSrcs, len(isa.Instr{}.Src))
			}
			p := pb.b.Exit().Build()
			if top := p.Regs() - 1; top >= isa.MaxRegs {
				return Kernel{}, fmt.Errorf("gpusched: kernel %s: CTA %d warp %d names register %d, above the %d registers a thread has (0..%d)",
					spec.Name, cta, w, top, isa.MaxRegs, isa.MaxRegs-1)
			}
			warps = append(warps, p)
		}
	}
	spec.Program = isa.NewPerWarp(nw, warps)
	if err := spec.Validate(); err != nil {
		return Kernel{}, err
	}
	return Kernel{spec: &spec}, nil
}

// MustBuild is Build, panicking on invalid specs.
func (b *KernelBuilder) MustBuild() Kernel {
	k, err := b.Build()
	if err != nil {
		panic(err)
	}
	return k
}

// ProgramBuilder appends instructions to one warp's program. Registers are
// identified by small integers (1..63); register 0 reads as always-ready
// and discards writes. Addresses are byte offsets into the kernel's private
// flat global memory.
type ProgramBuilder struct {
	b *isa.Builder
	// wideAt is the first ALU op of the program given more sources than an
	// instruction holds, and wideSrcs their number (0: none was), for
	// Build to refuse.
	wideAt, wideSrcs int
}

// IAdd appends an integer op dst <- f(srcs), of at most three sources, as
// do the other ALU ops.
func (p *ProgramBuilder) IAdd(dst uint8, srcs ...uint8) *ProgramBuilder {
	var r [3]isa.Reg
	p.b.IAlu(isa.Reg(dst), p.regs(&r, srcs)...)
	return p
}

// FAdd appends a floating-point add-class op.
func (p *ProgramBuilder) FAdd(dst uint8, srcs ...uint8) *ProgramBuilder {
	var r [3]isa.Reg
	p.b.FAlu(isa.Reg(dst), p.regs(&r, srcs)...)
	return p
}

// FMul appends a floating-point multiply-class op (same timing as FAdd on
// the SP pipeline; both exist for readability).
func (p *ProgramBuilder) FMul(dst uint8, srcs ...uint8) *ProgramBuilder {
	var r [3]isa.Reg
	p.b.FAlu(isa.Reg(dst), p.regs(&r, srcs)...)
	return p
}

// SFU appends a special-function op (rsqrt/exp/sin timing).
func (p *ProgramBuilder) SFU(dst uint8, srcs ...uint8) *ProgramBuilder {
	var r [3]isa.Reg
	p.b.Sfu(isa.Reg(dst), p.regs(&r, srcs)...)
	return p
}

// regs converts an ALU op's sources into r, which the caller keeps on its
// stack. Sources past the three an instruction holds are noted for Build.
func (p *ProgramBuilder) regs(r *[3]isa.Reg, srcs []uint8) []isa.Reg {
	if len(srcs) > len(r) {
		if p.wideSrcs == 0 {
			p.wideAt, p.wideSrcs = p.b.Len(), len(srcs)
		}
		srcs = srcs[:len(r)]
	}
	for i, s := range srcs {
		r[i] = isa.Reg(s)
	}
	return r[:len(srcs)]
}

// LoadGlobal appends a coalesced global load: lane l reads base+4l.
func (p *ProgramBuilder) LoadGlobal(dst uint8, base uint32) *ProgramBuilder {
	p.b.LoadGlobal(isa.Reg(dst), base)
	return p
}

// LoadGlobalStride appends a strided global load (stride in bytes between
// lanes; larger strides coalesce into more transactions).
func (p *ProgramBuilder) LoadGlobalStride(dst uint8, base, stride uint32) *ProgramBuilder {
	p.b.LoadGlobalStride(isa.Reg(dst), base, stride)
	return p
}

// LoadGlobalLanes appends a global gather with explicit per-lane addresses.
func (p *ProgramBuilder) LoadGlobalLanes(dst uint8, addrs [32]uint32) *ProgramBuilder {
	p.b.LoadGlobalAddrs(isa.Reg(dst), addrs)
	return p
}

// StoreGlobal appends a coalesced global store.
func (p *ProgramBuilder) StoreGlobal(src uint8, base uint32) *ProgramBuilder {
	p.b.StoreGlobal(isa.Reg(src), base)
	return p
}

// LoadShared appends a scratchpad load with a bank-conflict degree
// (1 = conflict-free, n = n serialized passes).
func (p *ProgramBuilder) LoadShared(dst uint8, conflict uint8) *ProgramBuilder {
	p.b.LoadShared(isa.Reg(dst), conflict)
	return p
}

// StoreShared appends a scratchpad store with a bank-conflict degree.
func (p *ProgramBuilder) StoreShared(src uint8, conflict uint8) *ProgramBuilder {
	p.b.StoreShared(isa.Reg(src), conflict)
	return p
}

// Atomic appends a global read-modify-write on the addressed words.
func (p *ProgramBuilder) Atomic(dst uint8, addrs [32]uint32) *ProgramBuilder {
	p.b.Atomic(isa.Reg(dst), addrs, isa.FullMask)
	return p
}

// Barrier appends a CTA-wide barrier.
func (p *ProgramBuilder) Barrier() *ProgramBuilder {
	p.b.Barrier()
	return p
}

// Package kernel models CUDA-style kernels: a grid of cooperative thread
// arrays (CTAs), each CTA a block of threads grouped into warps.
// It also owns the occupancy arithmetic — how many CTAs of a kernel fit on
// one SM given its thread, register, shared-memory, and CTA-slot limits —
// which is the resource model every CTA-scheduling policy negotiates with.
package kernel

import (
	"fmt"

	"gpusched/internal/isa"
)

// Spec describes one kernel launch: its shape, per-CTA resource appetite,
// and its program. Specs are immutable once launched.
type Spec struct {
	// Name identifies the kernel in stats and reports.
	Name string
	// Grid is the number of CTAs in the launch.
	Grid int
	// Block is the number of threads per CTA. It must be a multiple of the
	// warp size (the simulator does not model partially-filled warps; real
	// kernels with ragged blocks round up, which only pads occupancy).
	Block int
	// RegsPerThread is the architectural register demand per thread, what
	// the kernel reserves of the register file. It is an occupancy input
	// only: the core sizes each warp's scoreboard to the registers its
	// program names (isa.Program.Regs), which may be fewer.
	RegsPerThread int
	// SharedMemPerCTA is the scratchpad demand per CTA in bytes.
	SharedMemPerCTA int
	// Arrival is the cycle at which the kernel becomes eligible for
	// dispatch: the GPU front-end keeps it out of the dispatchers' launch
	// table until then. Zero (the default) means available at machine
	// launch. Late arrivals are how preemption scenarios are built — a
	// latency-sensitive kernel arriving while a batch kernel already owns
	// every SM.
	Arrival uint64
	// Program is the kernel's one program. Every warp runs it from its own
	// cursor, which carries the warp's CTA and index (isa.Cursor); a kernel
	// whose warps run programs of their own uses isa.PerWarp.
	Program isa.Program
}

// Validate checks the spec for internal consistency.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("kernel: spec has empty name")
	}
	if s.Grid <= 0 {
		return fmt.Errorf("kernel %s: empty grid of %d CTAs", s.Name, s.Grid)
	}
	if s.Block <= 0 {
		return fmt.Errorf("kernel %s: empty block of %d threads", s.Name, s.Block)
	}
	if s.Block%isa.WarpSize != 0 {
		return fmt.Errorf("kernel %s: block size %d not a multiple of warp size %d",
			s.Name, s.Block, isa.WarpSize)
	}
	if s.RegsPerThread < 0 || s.RegsPerThread > isa.MaxRegs {
		return fmt.Errorf("kernel %s: regs/thread %d outside [0,%d]",
			s.Name, s.RegsPerThread, isa.MaxRegs)
	}
	if s.SharedMemPerCTA < 0 {
		return fmt.Errorf("kernel %s: negative shared memory %d",
			s.Name, s.SharedMemPerCTA)
	}
	if s.Program == nil {
		return fmt.Errorf("kernel %s: nil program", s.Name)
	}
	return nil
}

// NumCTAs returns the total CTA count of the launch.
func (s *Spec) NumCTAs() int { return s.Grid }

// ThreadsPerCTA returns the block size in threads.
func (s *Spec) ThreadsPerCTA() int { return s.Block }

// WarpsPerCTA returns the number of warps per CTA.
func (s *Spec) WarpsPerCTA() int {
	return (s.Block + isa.WarpSize - 1) / isa.WarpSize
}

// CoreLimits captures the per-SM capacities that bound occupancy.
type CoreLimits struct {
	// MaxThreads is the hardware thread-context limit per SM.
	MaxThreads int
	// MaxCTAs is the hardware CTA-slot limit per SM.
	MaxCTAs int
	// MaxWarps is the warp-context limit per SM.
	MaxWarps int
	// Registers is the register-file capacity in registers.
	Registers int
	// SharedMemBytes is the scratchpad capacity in bytes.
	SharedMemBytes int
}

// MaxResident returns the occupancy-maximal number of CTAs of kernel s that
// fit concurrently on one SM with the given limits, and the name of the
// binding constraint. Returns 0 if even a single CTA does not fit.
func (l CoreLimits) MaxResident(s *Spec) (n int, binding string) {
	n = l.MaxCTAs
	binding = "cta-slots"
	consider := func(cap, per int, name string) {
		if per <= 0 {
			return
		}
		if m := cap / per; m < n {
			n = m
			binding = name
		}
	}
	consider(l.MaxThreads, s.ThreadsPerCTA(), "threads")
	consider(l.MaxWarps, s.WarpsPerCTA(), "warps")
	consider(l.Registers, s.RegsPerThread*s.ThreadsPerCTA(), "registers")
	consider(l.SharedMemBytes, s.SharedMemPerCTA, "shared-mem")
	if n < 0 {
		n = 0
	}
	return n, binding
}

// Usage is the resource footprint of a set of resident CTAs, used by the
// mixed-concurrent-kernel allocator to account for two kernels sharing an SM.
type Usage struct {
	CTAs      int
	Threads   int
	Warps     int
	Registers int
	SharedMem int
}

// Add returns u plus n CTAs of kernel s.
func (u Usage) Add(s *Spec, n int) Usage {
	u.CTAs += n
	u.Threads += n * s.ThreadsPerCTA()
	u.Warps += n * s.WarpsPerCTA()
	u.Registers += n * s.RegsPerThread * s.ThreadsPerCTA()
	u.SharedMem += n * s.SharedMemPerCTA
	return u
}

// Fits reports whether usage u is within limits l.
func (u Usage) Fits(l CoreLimits) bool {
	return u.CTAs <= l.MaxCTAs &&
		u.Threads <= l.MaxThreads &&
		u.Warps <= l.MaxWarps &&
		u.Registers <= l.Registers &&
		u.SharedMem <= l.SharedMemBytes
}

package core

import "gpusched/internal/sm"

// Sequential runs the launch table one kernel at a time: kernel i+1 is not
// dispatched until every CTA of kernel i has retired. This is the
// no-concurrent-kernel-execution baseline (CUDA's default stream).
type Sequential struct {
	rr RoundRobin
}

// NewSequential returns the one-kernel-at-a-time dispatcher.
func NewSequential() *Sequential { return &Sequential{} }

// Name implements Dispatcher.
func (s *Sequential) Name() string { return "sequential" }

// Tick implements Dispatcher.
func (s *Sequential) Tick(m Machine) {
	for _, ks := range m.Kernels() {
		if ks.Done() {
			continue
		}
		if !ks.Exhausted() {
			s.rr.fillKernel(m, ks, nil)
		}
		return // a kernel still draining holds back the ones after it
	}
}

// OnCTAComplete implements Dispatcher.
func (s *Sequential) OnCTAComplete(Machine, int, *sm.CTA) {}

// NextDispatchEvent implements Dispatcher: the kernel barrier advances
// only when a CTA completes.
func (s *Sequential) NextDispatchEvent(uint64) uint64 { return NeverEvent }

// Spatial is inter-core concurrent kernel execution: the SMs are statically
// partitioned between two kernels, each side filled to maximal occupancy.
// This models the leftover/spatial CKE the paper compares mixed execution
// against.
type Spatial struct {
	// CoresForA is how many cores (from index 0) kernel 0 owns; the rest
	// belong to kernel 1. Zero means an even split.
	CoresForA int
}

// NewSpatial returns an even-split spatial CKE dispatcher.
func NewSpatial() *Spatial { return &Spatial{} }

// Name implements Dispatcher.
func (s *Spatial) Name() string { return "spatial" }

// Tick implements Dispatcher: one placement per kernel region per cycle.
func (s *Spatial) Tick(m Machine) {
	split := s.CoresForA
	if split <= 0 {
		split = m.NumCores() / 2
	}
	kernels := m.Kernels()
	regions := [][2]int{{0, split}, {split, m.NumCores()}}
	for ki, ks := range kernels {
		if ki >= len(regions) {
			break
		}
		if ks.Exhausted() {
			continue
		}
		lo, hi := regions[ki][0], regions[ki][1]
		for i := lo; i < hi; i++ {
			c := m.Core(i)
			if c.CanAccept(ks.Spec) {
				place(m, ks, c, m.Now(), 0)
				break
			}
		}
	}
}

// OnCTAComplete implements Dispatcher.
func (s *Spatial) OnCTAComplete(Machine, int, *sm.CTA) {}

// NextDispatchEvent implements Dispatcher: the core partition is static.
func (s *Spatial) NextDispatchEvent(uint64) uint64 { return NeverEvent }

// Mixed is the paper's mixed concurrent kernel execution: both kernels
// co-reside on every SM. Kernel 0 (typically the one whose LCS profile
// showed it cannot use full occupancy) is capped at LimitA CTAs per core;
// kernel 1 fills whatever threads, registers, shared memory, and CTA slots
// remain. Kernel 0 has refill priority, so its share never erodes.
type Mixed struct {
	rr RoundRobin
	// LimitA caps kernel 0's resident CTAs per core. It is normally the
	// nOpt a solo LCS run decided for kernel 0.
	LimitA int
}

// NewMixed returns a mixed-CKE dispatcher capping kernel 0 at limitA per SM.
func NewMixed(limitA int) *Mixed { return &Mixed{LimitA: limitA} }

// Name implements Dispatcher.
func (x *Mixed) Name() string { return "mixed" }

// Tick implements Dispatcher.
func (x *Mixed) Tick(m Machine) {
	kernels := m.Kernels()
	n := m.NumCores()
	for i := 0; i < n; i++ {
		c := m.Core((x.rr.next + i) % n)
		// Kernel 0 first, up to its cap.
		if len(kernels) > 0 {
			ks := kernels[0]
			if !ks.Exhausted() && c.ResidentOf(0) < x.limitA() && c.CanAccept(ks.Spec) {
				place(m, ks, c, m.Now(), 0)
				x.rr.next = (c.ID() + 1) % n
				return
			}
		}
		// Then kernel 1 into the leftovers.
		if len(kernels) > 1 {
			ks := kernels[1]
			if !ks.Exhausted() && c.CanAccept(ks.Spec) {
				place(m, ks, c, m.Now(), 0)
				x.rr.next = (c.ID() + 1) % n
				return
			}
		}
	}
}

func (x *Mixed) limitA() int {
	if x.LimitA < 1 {
		return 1
	}
	return x.LimitA
}

// OnCTAComplete implements Dispatcher.
func (x *Mixed) OnCTAComplete(Machine, int, *sm.CTA) {}

// NextDispatchEvent implements Dispatcher: LimitA is fixed for the run.
func (x *Mixed) NextDispatchEvent(uint64) uint64 { return NeverEvent }

package core

import "gpusched/internal/sm"

// Sequential runs the launch table one kernel at a time: kernel i+1 is not
// dispatched until every CTA of kernel i has retired. This is the
// no-concurrent-kernel-execution baseline (CUDA's default stream).
type Sequential struct {
	RoundRobin
}

// NewSequential returns the one-kernel-at-a-time dispatcher.
func NewSequential() *Sequential { return &Sequential{} }

// Tick implements Dispatcher.
func (s *Sequential) Tick(m Machine) {
	for _, ks := range m.Kernels() {
		if ks.Done() {
			continue
		}
		if !ks.Exhausted() {
			s.fillKernel(m, ks, nil)
		}
		return // a kernel still draining holds back the ones after it
	}
}

// Spatial is inter-core concurrent kernel execution: the SMs are split
// evenly between two kernels, kernel 0 owning the first half (rounded
// down) and kernel 1 the rest, each side filled to maximal occupancy. This
// models the leftover/spatial CKE the paper compares mixed execution
// against.
type Spatial struct {
	RoundRobin
}

// NewSpatial returns the even-split spatial CKE dispatcher.
func NewSpatial() *Spatial { return &Spatial{} }

// Tick implements Dispatcher: one placement per kernel region per cycle.
func (s *Spatial) Tick(m Machine) {
	n := m.NumCores()
	regions := [][2]int{{0, n / 2}, {n / 2, n}}
	for ki, ks := range m.Kernels() {
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

// Mixed is the paper's mixed concurrent kernel execution: both kernels
// co-reside on every SM. Kernel 0 (typically the one whose LCS profile
// showed it cannot use full occupancy) is capped at LimitA CTAs per core;
// kernel 1 fills whatever threads, registers, shared memory, and CTA slots
// remain. Kernel 0 has refill priority, so its share never erodes.
type Mixed struct {
	RoundRobin
	// LimitA caps kernel 0's resident CTAs per core. It is normally the
	// nOpt a solo LCS run decided for kernel 0.
	LimitA int
}

// NewMixed returns a mixed-CKE dispatcher capping kernel 0 at limitA per SM.
func NewMixed(limitA int) *Mixed { return &Mixed{LimitA: limitA} }

// Tick implements Dispatcher: the first core that takes kernel 0 (under its
// cap) or kernel 1 gets kernel 0 if it fits there, else kernel 1.
func (x *Mixed) Tick(m Machine) {
	kernels := m.Kernels()
	var a, b *KernelState // kernels 0 and 1 while they have CTAs left
	if len(kernels) > 0 && !kernels[0].Exhausted() {
		a = kernels[0]
	}
	if len(kernels) > 1 && !kernels[1].Exhausted() {
		b = kernels[1]
	}
	takesA := func(c *sm.SM) bool { return a != nil && c.ResidentOf(0) < x.limitA() && c.CanAccept(a.Spec) }
	c := x.scan(m, func(c *sm.SM) bool { return takesA(c) || b != nil && c.CanAccept(b.Spec) })
	if c == nil {
		return
	}
	if takesA(c) {
		place(m, a, c, m.Now(), 0)
	} else {
		place(m, b, c, m.Now(), 0)
	}
}

func (x *Mixed) limitA() int {
	if x.LimitA < 1 {
		return 1
	}
	return x.LimitA
}

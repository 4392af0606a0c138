package core

import (
	"testing"

	"gpusched/internal/isa"
	"gpusched/internal/kernel"
	"gpusched/internal/mem"
	"gpusched/internal/sm"
	"gpusched/internal/stats"
)

// fakeMachine is the minimal Machine for exercising place() directly.
type fakeMachine struct {
	now     uint64
	cores   []*sm.SM
	kernels []*KernelState
}

func (f *fakeMachine) Now() uint64             { return f.now }
func (f *fakeMachine) NumCores() int           { return len(f.cores) }
func (f *fakeMachine) Core(i int) *sm.SM       { return f.cores[i] }
func (f *fakeMachine) Kernels() []*KernelState { return f.kernels }
func (f *fakeMachine) CoreCounters(i int) stats.Core {
	return f.cores[i].Counters(f.now)
}
func (f *fakeMachine) Preempt(coreID int, cta *sm.CTA) bool {
	return f.cores[coreID].DrainCTA(cta)
}

func requeueSpec(ctas int) *kernel.Spec {
	return &kernel.Spec{
		Name:          "rq",
		Grid:          kernel.Dim3{X: ctas},
		Block:         kernel.Dim3{X: isa.WarpSize},
		RegsPerThread: 16,
		Program:       isa.NewBuilder().FAlu(1, 1).Exit().Build(),
	}
}

func newFakeMachine(spec *kernel.Spec) *fakeMachine {
	cfg := sm.DefaultConfig()
	memCfg := mem.DefaultConfig()
	sys := mem.NewSystem(&memCfg, 1)
	f := &fakeMachine{}
	f.cores = []*sm.SM{sm.New(0, &cfg, sys, 1, func(int, *sm.CTA) {})}
	f.kernels = []*KernelState{{Spec: spec}}
	return f
}

// TestPlacePopsRequeueFIFO is the re-dispatch determinism regression: place()
// must serve evicted CTA ids strictly in Requeue() append order — the
// (eviction cycle, core index) order the GPU's preemption commit produces —
// before touching NextCTA, with Placed counting both kinds of placement.
func TestPlacePopsRequeueFIFO(t *testing.T) {
	spec := requeueSpec(64)
	f := newFakeMachine(spec)
	ks := f.kernels[0]
	ks.NextCTA = 10 // ten fresh CTAs already dispatched

	ks.Requeue(5)
	ks.Requeue(3)
	ks.Requeue(9)
	if ks.PendingRequeue() != 3 || ks.Evicted != 3 {
		t.Fatalf("pending=%d evicted=%d after 3 requeues", ks.PendingRequeue(), ks.Evicted)
	}

	want := []int{5, 3, 9, 10, 11}
	for i, w := range want {
		cta := place(f, ks, f.cores[0], f.now, 0)
		if cta.ID != w {
			t.Fatalf("placement %d dispatched CTA %d, want %d (FIFO order broken)", i, cta.ID, w)
		}
	}
	if ks.NextCTA != 12 {
		t.Fatalf("NextCTA = %d after requeue pops + 2 fresh, want 12", ks.NextCTA)
	}
	if ks.Placed != 5 {
		t.Fatalf("Placed = %d, want 5 (re-dispatches must count)", ks.Placed)
	}
	if ks.PendingRequeue() != 0 {
		t.Fatalf("requeue not drained: %d left", ks.PendingRequeue())
	}
}

// TestExhaustedAccountsForRequeue: a kernel whose grid is fully dispatched
// but which has evicted CTAs pending is NOT exhausted, and Remaining counts
// the pending re-dispatches.
func TestExhaustedAccountsForRequeue(t *testing.T) {
	spec := requeueSpec(4)
	f := newFakeMachine(spec)
	ks := f.kernels[0]
	ks.NextCTA = 4 // grid exhausted
	if !ks.Exhausted() {
		t.Fatal("fully-dispatched kernel should be Exhausted")
	}
	if ks.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", ks.Remaining())
	}
	ks.Requeue(2)
	if ks.Exhausted() {
		t.Fatal("kernel with a pending re-dispatch must not be Exhausted")
	}
	if ks.Remaining() != 1 {
		t.Fatalf("Remaining = %d with one requeued CTA, want 1", ks.Remaining())
	}
	cta := place(f, ks, f.cores[0], f.now, 0)
	if cta.ID != 2 {
		t.Fatalf("re-dispatched CTA %d, want 2", cta.ID)
	}
	if !ks.Exhausted() || ks.Remaining() != 0 {
		t.Fatalf("after re-dispatch: exhausted=%v remaining=%d, want true/0", ks.Exhausted(), ks.Remaining())
	}
	if ks.NextCTA != 4 {
		t.Fatalf("NextCTA = %d, requeue pop must not advance it", ks.NextCTA)
	}
}

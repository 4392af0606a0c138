package core

import (
	"reflect"
	"testing"

	"gpusched/internal/isa"
	"gpusched/internal/kernel"
	"gpusched/internal/mem"
	"gpusched/internal/sm"
)

// refMachine is a complete but deliberately naive Machine: every SM and the
// memory system tick on every cycle, retirements and evictions commit in
// core-index order, and nothing is parked, batched or fast-forwarded. It
// shares no code with the gpu package's cycle loop, so the quiescence
// contract below is checked independently of the engine that relies on it.
type refMachine struct {
	fakeMachine
	sys      *mem.System
	arrived  int
	retired  [][]*sm.CTA
	drained  [][]*sm.CTA
	finished int
	// quiet is the machine half of the certificate: the last dispatcher Tick
	// placed nothing and no CTA retired, was evicted or arrived since.
	quiet bool
	// ticks and skips count dispatcher polls made and elided.
	ticks, skips int
}

func newRefMachine(numCores int, specs ...*kernel.Spec) *refMachine {
	m := &refMachine{
		retired: make([][]*sm.CTA, numCores),
		drained: make([][]*sm.CTA, numCores),
	}
	cfg := sm.DefaultConfig()
	memCfg := mem.DefaultConfig()
	m.sys = mem.NewSystem(&memCfg, numCores)
	for i := 0; i < numCores; i++ {
		c := sm.New(i, &cfg, m.sys, len(specs), func(coreID int, cta *sm.CTA) {
			m.retired[coreID] = append(m.retired[coreID], cta)
		})
		c.SetDrainHandler(func(coreID int, cta *sm.CTA) {
			m.drained[coreID] = append(m.drained[coreID], cta)
		})
		m.cores = append(m.cores, c)
	}
	for i, spec := range specs {
		m.kernels = append(m.kernels, &KernelState{Spec: spec, Idx: i, AddrBase: uint64(i+1) << 33})
	}
	return m
}

func (m *refMachine) Kernels() []*KernelState { return m.kernels[:m.arrived] }

func (m *refMachine) placed() int {
	n := 0
	for _, ks := range m.kernels {
		n += ks.Placed
	}
	return n
}

func (m *refMachine) done() bool { return m.finished == len(m.kernels) }

// cycle advances the machine one cycle under dispatcher d. With certify
// unset d.Tick runs unconditionally — the reference. With certify set it
// runs only when the NextDispatchEvent certificate cannot prove it a no-op.
func (m *refMachine) cycle(d Dispatcher, certify bool) {
	for m.arrived < len(m.kernels) && m.kernels[m.arrived].Spec.Arrival <= m.now {
		m.arrived++
		m.quiet = false
	}
	if certify && m.quiet && d.NextDispatchEvent(m.now) > m.now {
		m.skips++
	} else {
		before := m.placed()
		d.Tick(m)
		m.quiet = m.placed() == before
		m.ticks++
	}
	for _, c := range m.cores {
		c.Tick(m.now)
	}
	po, _ := d.(PreemptionObserver)
	for c := range m.cores {
		for _, cta := range m.retired[c] {
			m.quiet = false
			ks := m.kernels[cta.KernelIdx]
			ks.Completed++
			if ks.Done() {
				ks.DoneCycle = m.now
				m.finished++
			}
			d.OnCTAComplete(m, c, cta)
			m.cores[c].Recycle(cta)
		}
		m.retired[c] = m.retired[c][:0]
	}
	for c := range m.cores {
		for _, cta := range m.drained[c] {
			m.quiet = false
			m.kernels[cta.KernelIdx].Requeue(cta.ID)
			if po != nil {
				po.OnCTAEvicted(m, c, cta)
			}
			m.cores[c].Recycle(cta)
		}
		m.drained[c] = m.drained[c][:0]
	}
	m.sys.Tick(m.now)
	m.now++
}

// perWarp is the program of a kernel of ctas blocks x warps warps whose
// warp w of CTA c runs prog(c, w).
func perWarp(ctas, warps int, prog func(ctaID, w int) isa.Program) isa.Program {
	var all []isa.Program
	for c := 0; c < ctas; c++ {
		for w := 0; w < warps; w++ {
			all = append(all, prog(c, w))
		}
	}
	return isa.NewPerWarp(warps, all)
}

// quiescenceSpec is a kernel of ctas blocks x warps warps that alternates a
// missing global load with dependent arithmetic, so CTAs live long enough
// for the machine to fill and retire at scattered cycles.
func quiescenceSpec(name string, ctas, warps, iters, regs int) *kernel.Spec {
	return &kernel.Spec{
		Name:          name,
		Grid:          kernel.Dim3{X: ctas},
		Block:         kernel.Dim3{X: warps * isa.WarpSize},
		RegsPerThread: regs,
		Program: perWarp(ctas, warps, func(ctaID, w int) isa.Program {
			b := isa.NewBuilder()
			for i := 0; i < iters; i++ {
				b.LoadGlobal(2, uint32(((ctaID*warps+w)*iters+i)*128))
				b.FAlu(3, 2)
				b.FAlu(3, 3)
			}
			b.Exit()
			return b.Build()
		}),
	}
}

// TestDispatcherQuiescenceContract checks the NextDispatchEvent certificate for
// every dispatcher the sim registry can build, by running two identical
// reference machines in lockstep: on one the dispatcher ticks every cycle,
// on the other only when the certificate does not hold (the previous Tick
// placed nothing, no CTA retired, was evicted or arrived since, and
// NextDispatchEvent lies ahead). The second dispatcher is a live snapshot of
// the state before each elided Tick, so after every cycle both must have
// placed the same CTAs and be reflect.DeepEqual — i.e. every Tick the
// certificate covers placed nothing and changed no dispatcher state.
func TestDispatcherQuiescenceContract(t *testing.T) {
	shortEpochDynCTA := func() Dispatcher {
		d := NewDynCTA()
		d.EpochCycles = 64 // several controller steps inside a short run
		return d
	}
	shortEpochPreemptive := func(deadline uint64) func() Dispatcher {
		return func() Dispatcher {
			p := NewPreemptive(1, deadline)
			p.EpochCycles = 32
			return p
		}
	}
	for _, tc := range []struct {
		name  string
		build func() Dispatcher
	}{
		{"baseline", func() Dispatcher { return NewRoundRobin() }},
		{"static", func() Dispatcher { return NewLimited(2) }},
		{"lcs", func() Dispatcher { return NewLCS() }},
		{"adaptive", func() Dispatcher { return NewAdaptiveLCS() }},
		{"dyncta", shortEpochDynCTA},
		{"bcs", func() Dispatcher { return NewBCS() }},
		{"sequential", func() Dispatcher { return NewSequential() }},
		{"spatial", func() Dispatcher { return NewSpatial() }},
		{"mixed", func() Dispatcher { return NewMixed(2) }},
		{"preemptive-eager", shortEpochPreemptive(0)},
		{"preemptive-deadline", shortEpochPreemptive(6000)},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			specs := func() []*kernel.Spec {
				late := quiescenceSpec("late", 6, 4, 3, 32)
				late.Arrival = 700
				return []*kernel.Spec{quiescenceSpec("first", 72, 2, 6, 32), late}
			}
			ref, cert := newRefMachine(3, specs()...), newRefMachine(3, specs()...)
			dRef, dCert := tc.build(), tc.build()
			for !ref.done() {
				if ref.now > 200_000 {
					t.Fatal("reference machine did not finish")
				}
				ref.cycle(dRef, false)
				cert.cycle(dCert, true)
				if ref.placed() != cert.placed() {
					t.Fatalf("cycle %d: a Tick the certificate covered placed a CTA (%d placements vs %d)",
						ref.now-1, ref.placed(), cert.placed())
				}
				if !reflect.DeepEqual(dRef, dCert) {
					t.Fatalf("cycle %d: a Tick the certificate covered changed dispatcher state:\n%+v\nvs\n%+v",
						ref.now-1, dRef, dCert)
				}
			}
			if !cert.done() {
				t.Fatal("certified machine fell behind the reference")
			}
			for i := range ref.kernels {
				if a, b := *ref.kernels[i], *cert.kernels[i]; a.DoneCycle != b.DoneCycle || a.Evicted != b.Evicted {
					t.Errorf("kernel %d diverged: done %d/%d evicted %d/%d", i, a.DoneCycle, b.DoneCycle, a.Evicted, b.Evicted)
				}
			}
			if p, ok := dCert.(*Preemptive); ok && p.DeadlineCycles == 0 && p.Drains == 0 {
				t.Error("eager Preemptive never drained a CTA: the eviction path went unexercised")
			}
			if cert.skips == 0 {
				t.Fatal("the certificate never held: the run exercised nothing")
			}
			t.Logf("%T: %d cycles, %d dispatcher ticks elided of %d", dCert, cert.now, cert.skips, cert.skips+cert.ticks)
		})
	}
}

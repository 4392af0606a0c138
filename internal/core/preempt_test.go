package core_test

import (
	"context"
	"reflect"
	"testing"

	"gpusched/internal/core"
	"gpusched/internal/gpu"
	"gpusched/internal/sm"
)

func TestPreemptiveImprovesPriorityTurnaround(t *testing.T) {
	// The paper scenario: the batch kernel owns every SM when the
	// latency-sensitive kernel arrives mid-run.
	batch := uniformKernel("batch", 96, 4, 400, 32)
	prio := uniformKernel("prio", 8, 4, 100, 32)
	prio.Arrival = 5_000

	run := func(d core.Dispatcher) gpu.Result {
		g := testGPU(t, d, sm.PolicyGTO, batch, prio)
		r := g.Run()
		if r.TimedOut {
			t.Fatalf("%s timed out", d.Name())
		}
		for i, k := range r.Kernels {
			if k.DoneCycle == 0 {
				t.Fatalf("%s: kernel %d never finished", d.Name(), i)
			}
		}
		return r
	}

	base := run(core.NewRoundRobin())
	pd := core.NewPreemptive(1, 0) // eager: any pending priority work preempts
	pre := run(pd)

	if pd.Drains == 0 {
		t.Fatal("eager Preemptive never preempted despite a saturated batch kernel")
	}
	if pre.Kernels[0].Evicted == 0 {
		t.Fatal("batch kernel reports no evictions")
	}
	if pre.Kernels[1].Evicted != 0 {
		t.Fatalf("priority kernel evicted %d of its own CTAs", pre.Kernels[1].Evicted)
	}
	if got, want := pre.Core.CTAsDrained, uint64(pre.Kernels[0].Evicted); got != want {
		t.Fatalf("core drain count %d != kernel eviction count %d", got, want)
	}
	if pre.Kernels[1].DoneCycle >= base.Kernels[1].DoneCycle {
		t.Fatalf("priority turnaround did not improve: preemptive %d vs round-robin %d",
			pre.Kernels[1].DoneCycle, base.Kernels[1].DoneCycle)
	}
	// Evicted batch CTAs restart from scratch, so the batch kernel still
	// retires its whole grid.
	if pre.Kernels[0].CTAs != 96 {
		t.Fatalf("batch kernel retired %d CTAs, want 96", pre.Kernels[0].CTAs)
	}
}

// evictRecord is one committed drain eviction as seen by the observer.
type evictRecord struct {
	Cycle     uint64
	CoreID    int
	KernelIdx int
	CTAID     int
}

// evictLogger wraps Preemptive, recording each committed eviction. Embedding
// promotes Dispatcher and OnCTAComplete; OnCTAEvicted is overridden to log
// before delegating.
type evictLogger struct {
	*core.Preemptive
	log []evictRecord
}

func (l *evictLogger) OnCTAEvicted(m core.Machine, coreID int, cta *sm.CTA) {
	l.log = append(l.log, evictRecord{m.Now(), coreID, cta.KernelIdx, cta.ID})
	l.Preemptive.OnCTAEvicted(m, coreID, cta)
}

// TestPreemptiveDeterminism proves the preemption path holds the simulator's
// core invariant: results and the full eviction log are identical on
// RunContext and RunReference (the calendar changes which SMs and partitions
// the loop visits and which cycles it steps on), and the log is ordered by
// (eviction cycle, core index) — the requeue FIFO key.
func TestPreemptiveDeterminism(t *testing.T) {
	batch := uniformKernel("batch", 64, 4, 300, 32)
	prio := uniformKernel("prio", 6, 4, 80, 32)
	prio.Arrival = 4_000

	type outcome struct {
		result gpu.Result
		log    []evictRecord
	}
	var ref *outcome
	var refName string
	for _, loop := range []struct {
		name string
		run  func(*gpu.GPU, context.Context) (gpu.Result, error)
	}{{"fast", (*gpu.GPU).RunContext}, {"reference", (*gpu.GPU).RunReference}} {
		name := loop.name
		d := &evictLogger{Preemptive: core.NewPreemptive(1, 0)}
		cfg := gpu.DefaultConfig()
		cfg.NumCores = 4
		cfg.MaxCycles = 5_000_000
		cfg.Core.WarpPolicy = sm.PolicyGTO
		g, err := gpu.New(cfg, d, batch, prio)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := loop.run(g, context.Background())
		if r.TimedOut {
			t.Fatalf("%s timed out", name)
		}
		got := &outcome{result: r, log: d.log}
		if len(got.log) == 0 {
			t.Fatalf("%s: no evictions logged", name)
		}
		for i := 1; i < len(got.log); i++ {
			a, b := got.log[i-1], got.log[i]
			if b.Cycle < a.Cycle || (b.Cycle == a.Cycle && b.CoreID < a.CoreID) {
				t.Fatalf("%s: eviction log out of (cycle, core) order at %d: %+v then %+v", name, i, a, b)
			}
		}
		if ref == nil {
			ref, refName = got, name
			continue
		}
		if !reflect.DeepEqual(got.result, ref.result) {
			t.Errorf("result diverged: %s vs %s", name, refName)
		}
		if !reflect.DeepEqual(got.log, ref.log) {
			t.Errorf("eviction log diverged: %s vs %s\n%v\nvs\n%v", name, refName, got.log, ref.log)
		}
	}
}

// TestPreemptiveDeadlineGatesPreemption: with a generous deadline the
// predictor reports the priority kernel on track and no preemption happens;
// with deadline 0 (eager) the same mix preempts.
func TestPreemptiveDeadlineGatesPreemption(t *testing.T) {
	// The priority kernel carries sustained work (more CTAs than fit at
	// once), so the eager config keeps draining for it long after the
	// lax-deadline config's predictor has declared it on track. Before the
	// first priority CTA completes the predictor abstains and both configs
	// drain — the divergence is in the steady state.
	batch := uniformKernel("batch", 96, 4, 400, 32)
	prio := uniformKernel("prio", 48, 4, 80, 32)
	prio.Arrival = 4_000

	eager := core.NewPreemptive(1, 0)
	g := testGPU(t, eager, sm.PolicyGTO, batch, prio)
	if r := g.Run(); r.TimedOut {
		t.Fatal("eager run timed out")
	}
	if eager.Drains == 0 {
		t.Fatal("eager config never preempted; the deadline comparison below is vacuous")
	}

	lax := core.NewPreemptive(1, 1<<40) // deadline far beyond any plausible makespan
	g = testGPU(t, lax, sm.PolicyGTO, batch, prio)
	if r := g.Run(); r.TimedOut {
		t.Fatal("lax-deadline run timed out")
	}
	if lax.Drains >= eager.Drains {
		t.Fatalf("lax deadline drained %d >= eager %d; predictor gate not engaging", lax.Drains, eager.Drains)
	}
}

func TestPreemptiveSingleKernelDegradesGracefully(t *testing.T) {
	// Launch table without the priority index: behaves as plain placement,
	// never preempts, completes.
	spec := uniformKernel("k", 64, 2, 50, 16)
	d := core.NewPreemptive(1, 0)
	g := testGPU(t, d, sm.PolicyGTO, spec)
	r := g.Run()
	if r.TimedOut {
		t.Fatal("timed out")
	}
	if d.Drains != 0 {
		t.Fatalf("single-kernel run preempted %d times", d.Drains)
	}
	if r.Kernels[0].CTAs != 64 {
		t.Fatalf("retired %d CTAs, want 64", r.Kernels[0].CTAs)
	}
}

package sim_test

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"gpusched/internal/sim"
	"gpusched/internal/sm"
	"gpusched/internal/workloads"
)

// reuseSequence is a run order in which every simulation takes over the
// machine of one that differs from it: core count 15 ↔ 2, two L1 sizes, both
// DRAM schedulers, every warp policy, the CTA schedulers with state of their
// own (LCS limits, BCS pairs, preemption drains), two kernels with a late
// arrival, a run that retires its last CTA with stores still in flight (vadd
// ends on a store), and a MaxCycles time-out followed by a normal run of the
// same kernel, which meets whatever the cut run left behind.
func reuseSequence() []sim.Request {
	one := func(name string, sched sim.SchedSpec, warp sm.Policy, cores int) sim.Request {
		return sim.Request{Workloads: []string{name}, Sched: sched, Warp: warp, Scale: workloads.ScaleTest, Cores: cores}
	}
	l1 := one("stencil", sim.Baseline(), sm.PolicyGTO, 2)
	l1.L1Bytes = 32 * 1024
	fcfs := one("spmv", sim.Baseline(), sm.PolicyLRR, 0)
	fcfs.DRAMSchedFCFS = true
	timeout := one("sgemm", sim.Baseline(), sm.PolicyGTO, 0)
	timeout.MaxCycles = 300
	pair := func(sched sim.SchedSpec, arrival uint64) sim.Request {
		r := one("spmv", sched, sm.PolicyGTO, 4)
		r.Workloads = []string{"spmv", "vadd"}
		r.Arrivals = []uint64{0, arrival}
		return r
	}
	return []sim.Request{
		one("vadd", sim.Baseline(), sm.PolicyGTO, 0),
		l1,
		fcfs,
		one("conv2d", sim.BCS(2), sm.PolicyBAWS, 2),
		one("spmv", sim.LCS(), sm.PolicyGTO, 0),
		pair(sim.Preemptive(1, 0), 3000),
		one("kmeans", sim.AdaptiveLCS(), sm.PolicyTwoLevel, 2),
		timeout,
		one("sgemm", sim.Baseline(), sm.PolicyGTO, 0),
		one("hotspot", sim.BCS(2), sm.PolicyBAWS, 0),
		pair(sim.Mixed(2), 2000),
		one("vadd", sim.Baseline(), sm.PolicyLRR, 2),
		one("streamcluster", sim.DynCTA(), sm.PolicyGTO, 0),
	}
}

// result is one request's outcome or its error text: a timed-out run is an
// error, and it must be the same error.
type result struct {
	out sim.Outcome
	err string
}

func references(t *testing.T, reqs []sim.Request) []result {
	t.Helper()
	want := make([]result, len(reqs))
	for i, req := range reqs {
		out, err := sim.Reference(context.Background(), req)
		want[i] = result{out: out}
		if err != nil {
			want[i].err = err.Error()
		}
	}
	return want
}

// runSequence submits reqs one after another on svc and diffs each outcome
// against want.
func runSequence(t *testing.T, svc *sim.Service, reqs []sim.Request, want []result) {
	t.Helper()
	for i, req := range reqs {
		out, err := svc.Run(context.Background(), req)
		got := result{out: out}
		if err != nil {
			// Service prefixes a time-out with the request key, as Reference
			// does; other errors would differ, and fail the comparison.
			got.err = err.Error()
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("run %d (%s) on a reused machine:\n%+v\nfresh machine:\n%+v", i, req.Key(), got, want[i])
		}
	}
}

// TestReusedMachineMatchesFresh is the oracle for machine reuse: a Service
// that runs one simulation at a time builds each machine in the arrays of the
// one before, and every Outcome must equal sim.Reference's, which builds a
// new machine for each request.
func TestReusedMachineMatchesFresh(t *testing.T) {
	reqs := reuseSequence()
	want := references(t, reqs)
	// One P: the pool hands the goroutine back the machine it returned.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	svc := sim.NewService(sim.Options{Workers: 1})
	runSequence(t, svc, reqs, want)
	st := svc.Stats()
	t.Logf("%d of %d simulations reused a machine", st.Reused, st.Simulated)
	// The race detector drops a quarter of what goes into a sync.Pool, so
	// only some reuse is certain.
	if st.Reused == 0 {
		t.Errorf("no simulation reused a machine (%d simulated)", st.Simulated)
	}
}

// TestReusedMachineConcurrentServices runs the sequence on two Services at
// once: they share the pool, so a machine one of them finished may be built
// on by the other. Under -race it is the check that a pooled machine is
// handed from one goroutine to the next without sharing.
func TestReusedMachineConcurrentServices(t *testing.T) {
	reqs := reuseSequence()
	want := references(t, reqs)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runSequence(t, sim.NewService(sim.Options{Workers: 1}), reqs, want)
		}()
	}
	wg.Wait()
}

// TestServiceAllocationBudget pins the bytes a warm Service.Run simulation
// allocates, the counterpart of gpu's TestAllocationBudget for machines built
// on a pooled predecessor. Each run has a key of its own (MaxCycles changes
// the key, not the work), so none is a memo hit. The budget is about 1.15×
// the measured bytes. A new machine allocates about 200× as much, so a
// per-machine array that renewal does not take over fails it. Under the race
// detector a sync.Pool drops a quarter of what is put into it, so the
// measurement means nothing there.
func TestServiceAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled machines at random")
	}
	const runs, budget = 8, 3_050
	req := sim.Request{Workloads: []string{"stencil"}, Sched: sim.Baseline(), Warp: sm.PolicyGTO, Scale: workloads.ScaleTest}
	// One P: the pool hands the goroutine back the machine it returned.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	svc := sim.NewService(sim.Options{Workers: 1})
	run := func(i int) {
		req.MaxCycles = uint64(1_000_000 + i)
		if _, err := svc.Run(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	run(0) // warm: the program templates, and a machine for the pool
	warm := svc.Stats().Reused
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= runs; i++ {
		run(i)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per warm run", bytes)
	if bytes > budget {
		t.Errorf("%d bytes per warm run, budget %d", bytes, budget)
	}
	if reused := svc.Stats().Reused - warm; reused != runs {
		t.Errorf("%d of %d warm runs reused a machine", reused, runs)
	}
}

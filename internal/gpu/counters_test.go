package gpu

import (
	"reflect"
	"testing"

	"gpusched/internal/core"
	"gpusched/internal/kernel"
	"gpusched/internal/sm"
	"gpusched/internal/stats"
	"gpusched/internal/workloads"
)

// dueSampler is DynCTA with a hook that runs on every cycle its controller
// is due, before the controller acts. Both loops tick the dispatcher on those
// cycles (the fast loop never skips or advances past a due cycle), so the
// hook's calls line up one for one between a fast run and the reference.
type dueSampler struct {
	*core.DynCTA
	onDue func()
}

func (d *dueSampler) Tick(m core.Machine) {
	if now := m.Now(); d.NextDispatchEvent(now) <= now {
		d.onDue()
	}
	d.DynCTA.Tick(m)
}

// counterSamples is one run's mid-run reads: every core's counters through
// the Machine accessor at each due dispatcher cycle and at each retirement,
// and how many of those reads found a core parked.
type counterSamples struct {
	dispatch, commit             [][]stats.Core
	parkedDispatch, parkedCommit int
}

// parked counts g's parked cores: none on RunReference, which has no
// activity set.
func parked(g *GPU) int {
	if g.activity == nil {
		return 0
	}
	return g.activity.sleeping()
}

func sampleCores(g *GPU) []stats.Core {
	out := make([]stats.Core, g.NumCores())
	for i := range out {
		out[i] = g.CoreCounters(i)
	}
	return out
}

// TestCountersReadMidRunMatchReference reads every core's counters in the
// middle of a run, at both stage boundaries a reader can sit at, and requires
// the fast loop's reads to equal the reference loop's. Results compared at the
// end cannot see a read at the wrong boundary that a later sync repairs; these
// samples do. Each fast run must also have read a parked core at both
// boundaries, or the window went untested.
func TestCountersReadMidRunMatchReference(t *testing.T) {
	stencil, _ := workloads.ByName("stencil")
	for _, tc := range []struct {
		name string
		spec func() *kernel.Spec
	}{
		{"chase", func() *kernel.Spec { return workloads.ChaseSpec(128, 1, 8) }},
		{"stencil", func() *kernel.Spec { return stencil.Build(workloads.ScaleTest) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var runs [2]counterSamples
			for i, loop := range []loop{(*GPU).RunContext, (*GPU).RunReference} {
				d := &dueSampler{DynCTA: core.NewDynCTA()}
				d.EpochCycles = 333
				g, err := New(testConfig(), d, tc.spec())
				if err != nil {
					t.Fatal(err)
				}
				s := &runs[i]
				d.onDue = func() {
					s.dispatch = append(s.dispatch, sampleCores(g))
					s.parkedDispatch += parked(g)
				}
				g.SetObserver(func(int, *sm.CTA, uint64) {
					s.commit = append(s.commit, sampleCores(g))
					s.parkedCommit += parked(g)
				})
				if r := runToEnd(g, loop); r.TimedOut {
					t.Fatalf("timed out at %d cycles", r.Cycles)
				}
			}
			fast, ref := runs[0], runs[1]
			if fast.parkedDispatch == 0 || fast.parkedCommit == 0 {
				t.Errorf("no parked core was read (dispatcher %d, commit %d reads)", fast.parkedDispatch, fast.parkedCommit)
			}
			for _, stage := range []struct {
				name      string
				fast, ref [][]stats.Core
			}{{"dispatcher", fast.dispatch, ref.dispatch}, {"commit", fast.commit, ref.commit}} {
				if len(stage.ref) == 0 {
					t.Errorf("%s: no samples", stage.name)
				}
				if len(stage.fast) != len(stage.ref) {
					t.Errorf("%s: %d samples, reference %d", stage.name, len(stage.fast), len(stage.ref))
					continue
				}
				for k := range stage.ref {
					if !reflect.DeepEqual(stage.fast[k], stage.ref[k]) {
						t.Errorf("%s sample %d diverged from the reference:\n%+v\nvs\n%+v", stage.name, k, stage.fast[k], stage.ref[k])
						break
					}
				}
			}
		})
	}
}

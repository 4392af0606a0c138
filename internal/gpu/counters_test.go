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

// counterSample is one mid-run read of the machine at a stage boundary:
// every core's counters through the Machine accessor and its L1 counters
// through the same boundary, and the L2 counters through g.now (the
// partitions tick after the commits, so at both boundaries they have not
// ticked g.now).
type counterSample struct {
	cores []stats.Core
	l1    []stats.Cache
	l2    stats.Cache
}

// counterSamples is one run's mid-run reads, at each due dispatcher cycle and
// at each retirement, and how many of those reads found a core parked.
type counterSamples struct {
	dispatch, commit             []counterSample
	parkedDispatch, parkedCommit int
}

// sampleMachine reads g at its current stage boundary, and counts the cores
// read across a parked window: those whose counters through the boundary
// differ from the ones they had stored before the read settled them. None on
// RunReference, which ticks every core every cycle.
func sampleMachine(g *GPU) (s counterSample, parked int) {
	t := g.now
	if g.postTick {
		t++
	}
	for i, c := range g.cores {
		stored := c.Counters(0) // t = 0 reads the stored counters
		read := g.CoreCounters(i)
		if read != stored {
			parked++
		}
		s.cores = append(s.cores, read)
		s.l1 = append(s.l1, c.L1Stats(t))
	}
	s.l2 = g.MemSystem().L2Stats(g.now)
	return s, parked
}

// TestCountersReadMidRunMatchReference reads every core's counters, every
// L1's and the L2's in the middle of a run, at both stage boundaries a reader
// can sit at, and requires the fast loop's reads to equal the reference
// loop's. A read settles the window it reads, so it must charge exactly the
// cycles a parked core or a waiting head skipped before the boundary: one
// too many or too few stays in the counters, and these samples catch it at
// the read, where results compared at the end may not. Each fast run must
// also have read a parked core at both boundaries, or the window went
// untested.
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
					sample, parked := sampleMachine(g)
					s.dispatch = append(s.dispatch, sample)
					s.parkedDispatch += parked
				}
				g.SetObserver(func(int, *sm.CTA, uint64) {
					sample, parked := sampleMachine(g)
					s.commit = append(s.commit, sample)
					s.parkedCommit += parked
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
				fast, ref []counterSample
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

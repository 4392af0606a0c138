package gpu

import (
	"reflect"
	"testing"

	"gpusched/internal/core"
	"gpusched/internal/kernel"
	"gpusched/internal/workloads"
)

// TestRenewMatchesNew builds each machine of a chain on the one before it and
// diffs its Result and EngineStats against a new machine's. The chain passes
// through a run that retires its last CTA with stores still in flight and one
// cut by MaxCycles, so renewal must drop what those leave behind, and through
// a core-count change each way.
func TestRenewMatchesNew(t *testing.T) {
	spec := func(name string) func() []*kernel.Spec {
		return func() []*kernel.Spec {
			w, _ := workloads.ByName(name)
			return []*kernel.Spec{w.Build(workloads.ScaleTest)}
		}
	}
	var prev *GPU
	for _, tc := range []struct {
		name  string
		cores int
		max   uint64
		d     func() core.Dispatcher
		specs func() []*kernel.Spec
		// inFlight: the run must end before its memory system drains (the
		// other runs may too).
		inFlight bool
	}{
		{"vadd-stores-in-flight", 4, 0, roundRobin, spec("vadd"), true},
		{"spmv-lcs", 2, 0, func() core.Dispatcher { return core.NewLCS() }, spec("spmv"), false},
		{"sgemm-timeout", 4, 2000, roundRobin, spec("sgemm"), true},
		{"stencil-bcs", 6, 0, func() core.Dispatcher { return core.NewBCS() }, spec("stencil"), false},
	} {
		// A rejected configuration leaves the predecessor as it was.
		if _, err := Renew(prev, Config{}, tc.d(), tc.specs()...); err == nil {
			t.Fatal("Renew accepted a machine without cores")
		}
		cfg := testConfig()
		cfg.NumCores = tc.cores
		if tc.max > 0 {
			cfg.MaxCycles = tc.max
		}
		fresh, err := New(cfg, tc.d(), tc.specs()...)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Run()
		g, err := Renew(prev, cfg, tc.d(), tc.specs()...)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && g != prev {
			t.Errorf("%s: Renew built a new GPU instead of renewing its predecessor", tc.name)
		}
		got := g.Run()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: renewed machine\n%+v\nnew machine\n%+v", tc.name, got, want)
		}
		if ge, fe := g.EngineStats(), fresh.EngineStats(); ge != fe {
			t.Errorf("%s: renewed machine's engine stats %+v, new machine's %+v", tc.name, ge, fe)
		}
		if tc.inFlight && g.MemSystem().Drained() {
			t.Errorf("%s: the memory system drained before the run ended", tc.name)
		}
		prev = g
	}
}

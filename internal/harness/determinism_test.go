package harness

import (
	"bytes"
	"runtime"
	"testing"

	"gpusched/internal/workloads"
)

// renderExperiment runs one experiment on a fresh harness and returns its
// rendered table.
func renderExperiment(t *testing.T, e Experiment, opt Options) []byte {
	t.Helper()
	tab, err := e.Run(New(opt))
	if err != nil {
		t.Fatalf("%s (noff=%t): %v", e.ID, opt.NoFastForward, err)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	return buf.Bytes()
}

// TestGoldenFastForwardDeterminism is the gate on the event-horizon
// fast-forward: every experiment, run with the fast-forward active and with
// it force-disabled, must render byte-identical tables. The skip logic is
// only allowed to elide cycles it can prove change nothing — any divergence
// in Cycles, InstrIssued, stall attribution, or per-kernel stats shows up
// here as a table diff.
func TestGoldenFastForwardDeterminism(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			fast := renderExperiment(t, e, Options{Scale: workloads.ScaleTest})
			ref := renderExperiment(t, e, Options{Scale: workloads.ScaleTest, NoFastForward: true})
			if !bytes.Equal(fast, ref) {
				t.Errorf("fast-forward changed %s:\n--- fast-forward ---\n%s--- reference ---\n%s",
					e.ID, fast, ref)
			}
		})
	}
}

// TestGoldenTickWorkerDeterminism is the gate on the two-phase parallel
// tick and the activity set riding on it: every experiment, run with the
// serial reference path (TickWorkers=1, default granule) and with parallel
// shard counts crossed against parking granules and the fast-forward
// toggle, must render byte-identical tables. The worker counts cross the
// SM count (7 shards over 15 cores, GOMAXPROCS whatever the host has) so
// uneven shard boundaries are exercised; the granules cover park-eagerly
// (1), the default (4), and park-reluctantly (16); the NoFastForward combo
// pins that the reference loop is untouched by granule plumbing.
func TestGoldenTickWorkerDeterminism(t *testing.T) {
	combos := []Options{
		{TickWorkers: 2, TickGranule: 1},
		{TickWorkers: 7, TickGranule: 4},
		{TickWorkers: runtime.GOMAXPROCS(0), TickGranule: 16},
		{TickWorkers: 7, TickGranule: 16, NoFastForward: true},
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			serial := renderExperiment(t, e, Options{Scale: workloads.ScaleTest, TickWorkers: 1})
			for _, c := range combos {
				c.Scale = workloads.ScaleTest
				par := renderExperiment(t, e, c)
				if !bytes.Equal(serial, par) {
					t.Errorf("tick workers=%d granule=%d noff=%t changed %s:\n--- workers=1 ---\n%s--- variant ---\n%s",
						c.TickWorkers, c.TickGranule, c.NoFastForward, e.ID, serial, par)
				}
			}
		})
	}
}

// TestGoldenMemShardDeterminism is the gate on the phase-A2 sharded memory
// tick and quiet-window cycle batching: one experiment, rendered with the
// fully serial unbatched configuration (TickWorkers=1, MemShards=1,
// BatchWindow=1), must be byte-identical under every shard/window cut. The
// combos cross shard counts (2, one per partition, and more shards than
// partitions — trailing shards own nothing), batch windows (off, default,
// explicit beyond the crossbar clamp), and the fast-forward toggle (batching
// is structurally off without fast-forward sleep proofs). One experiment,
// not all: the full cross is covered cheaply in internal/gpu, and this
// package's race-mode budget is already dominated by the worker sweep.
func TestGoldenMemShardDeterminism(t *testing.T) {
	e, ok := ByID("fig5")
	if !ok {
		t.Fatal("fig5 experiment missing")
	}
	serial := renderExperiment(t, e, Options{
		Scale: workloads.ScaleTest, TickWorkers: 1, MemShards: 1, BatchWindow: 1,
	})
	for _, c := range []Options{
		{TickWorkers: 2, MemShards: 2, BatchWindow: 1},
		{TickWorkers: 7, MemShards: 6},
		{TickWorkers: 2, MemShards: 8, BatchWindow: 64},
		{TickWorkers: 7, MemShards: 6, NoFastForward: true},
	} {
		c.Scale = workloads.ScaleTest
		got := renderExperiment(t, e, c)
		if !bytes.Equal(serial, got) {
			t.Errorf("mem shards=%d window=%d workers=%d noff=%t changed fig5:\n--- serial ---\n%s--- variant ---\n%s",
				c.MemShards, c.BatchWindow, c.TickWorkers, c.NoFastForward, serial, got)
		}
	}
}

// TestGoldenDeterminismAcrossGOMAXPROCS pins down that worker parallelism
// never leaks into results: one experiment run on a single-threaded
// scheduler must match the same run on every core bit for bit. The tick
// worker count is named (the sharded tick is opt-in), so both the run-level
// pool and the per-simulation pool change shape with GOMAXPROCS.
func TestGoldenDeterminismAcrossGOMAXPROCS(t *testing.T) {
	e, ok := ByID("fig5")
	if !ok {
		t.Fatal("fig5 experiment missing")
	}
	opt := Options{Scale: workloads.ScaleTest, TickWorkers: 2}
	wide := renderExperiment(t, e, opt)
	prev := runtime.GOMAXPROCS(1)
	narrow := renderExperiment(t, e, opt)
	runtime.GOMAXPROCS(prev)
	if !bytes.Equal(wide, narrow) {
		t.Errorf("GOMAXPROCS changed fig5:\n--- parallel ---\n%s--- serial ---\n%s", wide, narrow)
	}
}

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

// TestGoldenGranuleDeterminism is the gate on activity-set parking: every
// experiment, run at the default granule (4) and with the parking threshold
// swept from park-eagerly (1) through park-reluctantly (16) to never-park
// (4096), must render byte-identical tables. Parking changes which SMs the
// cycle loop visits, never their relative order, so this is the gate on the
// parking invariant (DESIGN.md "Activity sets"): an SM parked while it still
// had something to send, issue or retire shows up here as a table diff. The
// NoFastForward combo is the independent reference: every SM, every cycle,
// in index order.
func TestGoldenGranuleDeterminism(t *testing.T) {
	combos := []Options{
		{TickGranule: 1},
		{TickGranule: 16},
		{TickGranule: 4096},
		{TickGranule: 16, NoFastForward: true},
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			base := renderExperiment(t, e, Options{Scale: workloads.ScaleTest})
			for _, c := range combos {
				c.Scale = workloads.ScaleTest
				got := renderExperiment(t, e, c)
				if !bytes.Equal(base, got) {
					t.Errorf("granule=%d noff=%t changed %s:\n--- default ---\n%s--- variant ---\n%s",
						c.TickGranule, c.NoFastForward, e.ID, base, got)
				}
			}
		})
	}
}

// TestGoldenBatchWindowDeterminism is the gate on quiet-window cycle
// batching: one experiment, rendered with batching off (BatchWindow=1), must
// be byte-identical under every window — 2, the default, one beyond the
// crossbar clamp — and with the fast-forward toggle (batching is structurally
// off without fast-forward sleep proofs). One experiment, not all: the full
// cross is covered cheaply in internal/gpu.
func TestGoldenBatchWindowDeterminism(t *testing.T) {
	e, ok := ByID("fig5")
	if !ok {
		t.Fatal("fig5 experiment missing")
	}
	unbatched := renderExperiment(t, e, Options{Scale: workloads.ScaleTest, BatchWindow: 1})
	for _, c := range []Options{
		{BatchWindow: 2},
		{},
		{BatchWindow: 64},
		{NoFastForward: true},
	} {
		c.Scale = workloads.ScaleTest
		got := renderExperiment(t, e, c)
		if !bytes.Equal(unbatched, got) {
			t.Errorf("window=%d noff=%t changed fig5:\n--- unbatched ---\n%s--- variant ---\n%s",
				c.BatchWindow, c.NoFastForward, unbatched, got)
		}
	}
}

// TestGoldenDeterminismAcrossGOMAXPROCS pins down that run-level parallelism
// never leaks into results: one experiment run on a single-threaded
// scheduler must match the same run on every core bit for bit. Each
// simulation's cycle loop is serial; what changes shape with GOMAXPROCS is
// sim.Service's pool of concurrent simulations.
func TestGoldenDeterminismAcrossGOMAXPROCS(t *testing.T) {
	e, ok := ByID("fig5")
	if !ok {
		t.Fatal("fig5 experiment missing")
	}
	opt := Options{Scale: workloads.ScaleTest}
	wide := renderExperiment(t, e, opt)
	prev := runtime.GOMAXPROCS(1)
	narrow := renderExperiment(t, e, opt)
	runtime.GOMAXPROCS(prev)
	if !bytes.Equal(wide, narrow) {
		t.Errorf("GOMAXPROCS changed fig5:\n--- parallel ---\n%s--- serial ---\n%s", wide, narrow)
	}
}

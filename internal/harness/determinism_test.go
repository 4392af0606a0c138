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

// TestGoldenFastForwardDeterminism is the gate on SM parking and the advance
// step: every experiment, run with both active and on the reference loop
// (every SM and the dispatcher, every cycle, in index order), must render
// byte-identical tables. The skip logic is only allowed to elide visits and
// cycles it can prove change nothing — an SM parked while it still had
// something to send, issue or retire, or any divergence in Cycles,
// InstrIssued, stall attribution, or per-kernel stats, shows up here as a
// table diff.
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

// TestGoldenGranuleDeterminism is the gate on the parking rule on a second
// machine shape. The name is kept from the parking-threshold sweep it
// replaces: with one rule left (park on any stall bound beyond the next
// cycle), what still moves which SMs park, for how long and how often they
// all park at once is how many there are. Every experiment on a 4-SM machine
// — more CTA waves per SM, so more retire-and-refill wakes crossing parked
// stretches than the 15-SM default above — must render byte-identical tables
// with parking and the advance step active and on the reference loop.
func TestGoldenGranuleDeterminism(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			fast := renderExperiment(t, e, Options{Scale: workloads.ScaleTest, Cores: 4})
			ref := renderExperiment(t, e, Options{Scale: workloads.ScaleTest, Cores: 4, NoFastForward: true})
			if !bytes.Equal(fast, ref) {
				t.Errorf("parking changed %s on 4 SMs:\n--- parked ---\n%s--- reference ---\n%s",
					e.ID, fast, ref)
			}
		})
	}
}

// TestGoldenBatchWindowDeterminism is the gate on the advance step's
// memory-system windows, which replaced quiet-window batching. On a single
// SM every stall of that SM is an all-parked stretch, so the advance covers
// the most cycles there and ticks the memory system alone in windows the
// most often. fig5, the memory-bound throttling sweep, on one SM must render
// byte-identical tables with the advance active and on the reference loop.
func TestGoldenBatchWindowDeterminism(t *testing.T) {
	e, ok := ByID("fig5")
	if !ok {
		t.Fatal("fig5 experiment missing")
	}
	fast := renderExperiment(t, e, Options{Scale: workloads.ScaleTest, Cores: 1})
	ref := renderExperiment(t, e, Options{Scale: workloads.ScaleTest, Cores: 1, NoFastForward: true})
	if !bytes.Equal(fast, ref) {
		t.Errorf("the advance step changed fig5 on 1 SM:\n--- advance ---\n%s--- reference ---\n%s", fast, ref)
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

package harness

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"gpusched/internal/sim"
	"gpusched/internal/workloads"
)

// renderExperiment runs one experiment on a fresh harness and returns its
// rendered table.
func renderExperiment(t *testing.T, e Experiment, opt Options) []byte {
	t.Helper()
	return render(t, e, New(opt))
}

func render(t *testing.T, e Experiment, h *Harness) []byte {
	t.Helper()
	tab, err := e.Run(h)
	if err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	return buf.Bytes()
}

// refChecker is the harness's runner in the golden determinism tests: it
// passes every lookup to the service and diffs the Outcome (Result and
// Limits) of each distinct request against sim.Reference, the same request
// on the reference cycle loop. References run at most GOMAXPROCS at a time.
// It also holds the experiments to their batching: a table lookup (Run) of a
// request that no earlier RunAll ran would simulate alone, and a request
// RunAll ran that no lookup reads was simulated for nothing.
type refChecker struct {
	t   *testing.T
	svc *sim.Service
	sem chan struct{}

	mu      sync.Mutex
	checked map[string]bool
	batched map[string]bool // key -> read by a lookup since RunAll ran it
}

// checkReference runs e on a fresh harness with opt, diffing every
// simulation against the reference loop.
func checkReference(t *testing.T, e Experiment, opt Options) {
	t.Helper()
	h := New(opt)
	c := &refChecker{t: t, svc: h.svc, sem: make(chan struct{}, runtime.GOMAXPROCS(0)),
		checked: map[string]bool{}, batched: map[string]bool{}}
	h.run = c
	render(t, e, h)
	for key, read := range c.batched {
		if !read {
			t.Errorf("%s: batched but never read", key)
		}
	}
	t.Logf("%s: %d distinct requests match the reference loop", e.ID, len(c.checked))
}

func (c *refChecker) Run(ctx context.Context, req sim.Request) (sim.Outcome, error) {
	key := req.Key()
	c.mu.Lock()
	_, ran := c.batched[key]
	c.batched[key] = true
	c.mu.Unlock()
	if !ran {
		c.t.Errorf("%s: read without an earlier batch running it", key)
	}
	return c.check(ctx, req, key)
}

func (c *refChecker) RunAll(ctx context.Context, reqs []sim.Request) error {
	var wg sync.WaitGroup
	errs := make([]error, len(reqs))
	for i, req := range reqs {
		key := req.Key()
		c.mu.Lock()
		if _, ok := c.batched[key]; !ok {
			c.batched[key] = false
		}
		c.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.check(ctx, req, key)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// check runs req on the service and, the first time key is seen, diffs the
// outcome against the reference loop.
func (c *refChecker) check(ctx context.Context, req sim.Request, key string) (sim.Outcome, error) {
	out, err := c.svc.Run(ctx, req)
	if err != nil {
		return out, err
	}
	c.mu.Lock()
	seen := c.checked[key]
	c.checked[key] = true
	c.mu.Unlock()
	if seen {
		return out, nil
	}
	c.sem <- struct{}{}
	ref, err := sim.Reference(ctx, req)
	<-c.sem
	if err != nil {
		c.t.Errorf("%s: reference loop failed where the service succeeded: %v", key, err)
	} else if !reflect.DeepEqual(out, ref) {
		c.t.Errorf("%s: diverged from the reference loop:\n%+v\nvs\n%+v", key, out, ref)
	}
	return out, nil
}

// TestGoldenFastForwardDeterminism is the gate on the calendar: every
// simulation of every experiment must commit the same Outcome as the
// reference loop (the dispatcher, every SM and every L2 partition, every
// cycle, in index order). The skip logic is only allowed to elide visits and
// cycles it can prove change nothing — an SM parked while it still had
// something to send, issue or retire shows up here as a diff in Cycles,
// InstrIssued, stall attribution, per-kernel stats or a scheduler's limits,
// whether or not the rendered table would show it.
func TestGoldenFastForwardDeterminism(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			checkReference(t, e, Options{Scale: workloads.ScaleTest})
		})
	}
}

// TestGoldenGranuleDeterminism is the four-SM determinism gate: every
// simulation of every experiment on a 4-SM machine must commit the reference
// loop's Outcome. With one parking rule (park on any stall bound beyond the
// next cycle), what still moves which SMs park, for how long and how often
// they all park at once is how many SMs there are, and four gives more CTA
// waves per SM — so more retire-and-refill wakes crossing parked stretches —
// than the 15-SM default above. (The name is left from a deleted
// parking-granule knob; renaming it renames every per-experiment subtest.)
func TestGoldenGranuleDeterminism(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			checkReference(t, e, Options{Scale: workloads.ScaleTest, Cores: 4})
		})
	}
}

// TestGoldenOneSMDeterminism is the one-SM determinism gate: every
// simulation of fig5, the memory-bound throttling sweep, on one SM must
// commit the reference loop's Outcome. On a single SM every stall of that SM
// is an all-parked stretch, so the calendar jumps the most cycles there and
// ticks the L2 partitions alone the most often.
func TestGoldenOneSMDeterminism(t *testing.T) {
	e, ok := ByID("fig5")
	if !ok {
		t.Fatal("fig5 experiment missing")
	}
	checkReference(t, e, Options{Scale: workloads.ScaleTest, Cores: 1})
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

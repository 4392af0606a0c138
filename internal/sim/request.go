package sim

import (
	"fmt"
	"strings"

	"gpusched/internal/core"
	"gpusched/internal/gpu"
	"gpusched/internal/kernel"
	"gpusched/internal/sm"
	"gpusched/internal/workloads"
)

// Request describes one simulation: what to run and on which simulated
// machine. The zero values of the override fields keep the Fermi-class
// defaults, so a Request is fully described by its visible fields and
// Key() can serve as a cache identity.
type Request struct {
	// Workloads are the suite workloads to launch, in launch order.
	Workloads []string
	// Arrivals are per-workload dispatch-availability cycles, parallel to
	// Workloads; a missing or zero entry means available at machine launch.
	// Entries must be nondecreasing in launch order (the GPU keeps arrived
	// kernels a prefix of the launch table). Late arrivals set up the
	// preemption scenarios: a latency-sensitive kernel arriving while the
	// batch kernel owns every SM.
	Arrivals []uint64
	// Sched is the CTA scheduling policy.
	Sched SchedSpec
	// Warp is the per-SM warp scheduling policy.
	Warp sm.Policy
	// Scale selects the problem size.
	Scale workloads.Scale
	// Cores overrides the SM count (0 = the 15-SM default).
	Cores int
	// L1Bytes overrides the per-SM L1 capacity (0 = default; sensitivity
	// studies).
	L1Bytes int
	// DRAMSchedFCFS selects plain FCFS DRAM scheduling over FR-FCFS.
	DRAMSchedFCFS bool
	// MaxCycles overrides the simulation bound (0 = the 20M default).
	MaxCycles uint64
}

// Key returns the canonical identity of the request: two requests with
// equal keys simulate identically (the simulator is deterministic). It is
// the memoization key of Service and, hashed, the on-disk cache filename.
// The cachekey annotation makes the coverage a build-time contract: a new
// exported Request field that is not folded in here fails `make lint`.
//
//gpulint:cachekey Request
func (r Request) Key() string {
	key := fmt.Sprintf("w=%s|sched=%s|warp=%s|scale=%s|cores=%d|l1=%d|fcfs=%t|max=%d",
		strings.Join(r.Workloads, "+"), r.Sched, r.Warp,
		ScaleName(r.Scale), r.Cores, r.L1Bytes, r.DRAMSchedFCFS, r.MaxCycles)
	// Appended rather than inlined so existing disk caches keep their keys
	// for requests without arrivals, and only when some arrival is nonzero:
	// all-zero arrivals are semantically the zero value and must key like it.
	if arr := normalizeArrivals(r.Arrivals); arr != nil {
		parts := make([]string, len(arr))
		for i, a := range arr {
			parts[i] = fmt.Sprintf("%d", a)
		}
		key += "|arr=" + strings.Join(parts, "+")
	}
	return key
}

// Validate checks the request names known workloads, launches at least one
// kernel, and overrides no size with a negative value: config ignores those,
// so they would simulate the default machine under a key of their own.
func (r Request) Validate() error {
	if len(r.Workloads) == 0 {
		return fmt.Errorf("sim: request launches no workloads")
	}
	for _, n := range r.Workloads {
		if _, ok := workloads.ByName(n); !ok {
			return fmt.Errorf("sim: unknown workload %q", n)
		}
	}
	if len(r.Arrivals) > len(r.Workloads) {
		return fmt.Errorf("sim: %d arrivals for %d workloads", len(r.Arrivals), len(r.Workloads))
	}
	for i := 1; i < len(r.Arrivals); i++ {
		if r.Arrivals[i] < r.Arrivals[i-1] {
			return fmt.Errorf("sim: arrivals must be nondecreasing in launch order (entry %d: %d < %d)",
				i, r.Arrivals[i], r.Arrivals[i-1])
		}
	}
	if r.Cores < 0 || r.L1Bytes < 0 {
		return fmt.Errorf("sim: request cores and l1_bytes must be >= 0 (got %d, %d)", r.Cores, r.L1Bytes)
	}
	return nil
}

// config assembles the GPU configuration the request's overrides select.
func (r Request) config() gpu.Config {
	cfg := gpu.DefaultConfig()
	if r.Cores > 0 {
		cfg.NumCores = r.Cores
	}
	cfg.Core.WarpPolicy = r.Warp
	if r.L1Bytes > 0 {
		cfg.Mem.L1Bytes = r.L1Bytes
	}
	cfg.Mem.DRAMSchedFCFS = r.DRAMSchedFCFS
	if r.MaxCycles > 0 {
		cfg.MaxCycles = r.MaxCycles
	}
	return cfg
}

// Machine is a request's simulation, built and not yet run: the GPU and the
// fresh dispatcher whose limit decisions Outcome reads once it has run.
type Machine struct {
	*gpu.GPU
	sched SchedSpec
	d     core.Dispatcher
}

// Build validates the request and assembles its machine under a fresh
// dispatcher, on prev's arrays when prev is not nil (gpu.Renew). It is the
// one place a Request becomes a machine: Service, Reference and the tools
// that drive a run themselves (an observer, a trace, engine counters) all
// build here.
func (r Request) Build(prev *gpu.GPU) (Machine, error) {
	if err := r.Validate(); err != nil {
		return Machine{}, err
	}
	specs := make([]*kernel.Spec, len(r.Workloads))
	for i, n := range r.Workloads {
		w, _ := workloads.ByName(n) // Validate checked every name
		specs[i] = w.Build(r.Scale)
		if i < len(r.Arrivals) {
			specs[i].Arrival = r.Arrivals[i]
		}
	}
	d := r.Sched.NewDispatcher()
	g, err := gpu.Renew(prev, r.config(), d, specs...)
	if err != nil {
		return Machine{}, err
	}
	return Machine{GPU: g, sched: r.Sched, d: d}, nil
}

// Outcome couples a simulation result with the scheduler-internal limit
// decisions of LCS-family policies (nil otherwise).
type Outcome struct {
	Result gpu.Result
	Limits []int `json:",omitempty"`
}

// Outcome couples raw, a finished run of m, with the dispatcher's limit
// decisions.
func (m Machine) Outcome(raw gpu.Result) Outcome {
	out := Outcome{Result: raw}
	if limits, ok := m.sched.Limits(m.d); ok {
		out.Limits = append([]int(nil), limits...)
	}
	return out
}

// finish is the outcome Service and Reference answer key with: a timed-out
// run is an error.
func (m Machine) finish(key string, raw gpu.Result) (Outcome, error) {
	if raw.TimedOut {
		return Outcome{}, fmt.Errorf("sim: %s timed out after %d cycles", key, raw.Cycles)
	}
	return m.Outcome(raw), nil
}

package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
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
// Key() can serve as a cache identity. Its JSON tags are the wire form
// of gpuschedd and gpurouter: sched and warp travel as the names their CLI
// flags accept (the types' text methods), scale by name too (MarshalJSON),
// so a curl payload reads like a gpusim invocation.
type Request struct {
	// Workloads are the suite workloads to launch, in launch order.
	Workloads []string `json:"workloads"`
	// Arrivals are per-workload dispatch-availability cycles, parallel to
	// Workloads; a missing or zero entry means available at machine launch.
	// Entries must be nondecreasing in launch order (the GPU keeps arrived
	// kernels a prefix of the launch table). Late arrivals set up the
	// preemption scenarios: a latency-sensitive kernel arriving while the
	// batch kernel owns every SM.
	Arrivals []uint64 `json:"arrivals,omitempty"`
	// Sched is the CTA scheduling policy.
	Sched SchedSpec `json:"sched"`
	// Warp is the per-SM warp scheduling policy.
	Warp sm.Policy `json:"warp"`
	// Scale selects the problem size.
	Scale workloads.Scale `json:"scale"`
	// Cores overrides the SM count (0 = the 15-SM default).
	Cores int `json:"cores,omitempty"`
	// L1Bytes overrides the per-SM L1 capacity (0 = default; sensitivity
	// studies).
	L1Bytes int `json:"l1_bytes,omitempty"`
	// DRAMSchedFCFS selects plain FCFS DRAM scheduling over FR-FCFS.
	DRAMSchedFCFS bool `json:"dram_fcfs,omitempty"`
	// MaxCycles overrides the simulation bound (0 = the 20M default).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
}

// wire is Request without its methods, so that encoding/json reads its
// tags instead of calling MarshalJSON or UnmarshalJSON again.
type wire Request

// scaleName is a request's scale on the wire, by name. workloads.Scale has
// no text form of its own: the benchmark's run records store it as a
// number.
type scaleName workloads.Scale

func (s scaleName) MarshalText() ([]byte, error) { return []byte(workloads.Scale(s).String()), nil }

func (s *scaleName) UnmarshalText(text []byte) error {
	sc, err := workloads.ParseScale(string(text))
	*s = scaleName(sc)
	return err
}

// retired refuses a field the wire form no longer has, so that a body
// naming it is never run without what it asked for.
type retired struct{}

func (retired) UnmarshalJSON([]byte) error {
	return errors.New(`priority_kernel and deadline_cycles are retired: write "sched":"preemptive:D"`)
}

// MarshalJSON writes the request under its tags, with scale by name.
func (r Request) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		wire
		Scale scaleName `json:"scale"`
	}{wire(r), scaleName(r.Scale)})
}

// requestIn is what the wire form decodes into: the request's tags, scale
// by name, and the retired fields, which refuse a body that names them.
type requestIn struct {
	PriorityKernel retired `json:"priority_kernel"`
	DeadlineCycles retired `json:"deadline_cycles"`
	wire
	Scale scaleName `json:"scale"`
}

func (in requestIn) request() Request {
	r := Request(in.wire)
	r.Scale = workloads.Scale(in.Scale)
	return r
}

// UnmarshalJSON reads the wire form. Omitted fields keep their zero values
// (baseline, lrr, tiny), and a bad name fails with the message its CLI flag
// gives. Unknown fields are ignored, except the retired priority_kernel and
// deadline_cycles.
func (r *Request) UnmarshalJSON(data []byte) error {
	var in requestIn
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("sim: bad request JSON: %w", err)
	}
	*r = in.request()
	return nil
}

// DecodeBody reads the body of a simulate call in one JSON pass: the
// request in its wire form, as UnmarshalJSON reads it, and the envelope
// field timeout_ms (0 when absent). Decoding into a Request instead would
// have encoding/json check the body once more for the method.
func DecodeBody(data []byte) (req Request, timeoutMS int64, err error) {
	var body struct {
		requestIn
		TimeoutMS int64 `json:"timeout_ms"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		return Request{}, 0, fmt.Errorf("sim: bad request JSON: %w", err)
	}
	return body.request(), body.TimeoutMS, nil
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
		r.Scale, r.Cores, r.L1Bytes, r.DRAMSchedFCFS, r.MaxCycles)
	// Appended rather than inlined so existing disk caches keep their keys
	// for requests without arrivals, and only when some arrival is nonzero:
	// all-zero arrivals are semantically the zero value and must key like it.
	if slices.ContainsFunc(r.Arrivals, func(a uint64) bool { return a != 0 }) {
		parts := make([]string, len(r.Arrivals))
		for i, a := range r.Arrivals {
			parts[i] = fmt.Sprintf("%d", a)
		}
		key += "|arr=" + strings.Join(parts, "+")
	}
	return key
}

// Validate checks the request names known workloads, launches at least one
// kernel and no more than its scheduler places, overrides no size with a
// negative value (config ignores those, so they would simulate the default
// machine under a key of their own), selects a machine that can be built
// (gpu.Config.Validate), and, under spatial, gives kernel 0 a core (else
// the run could only time out).
func (r Request) Validate() error {
	if len(r.Workloads) == 0 {
		return fmt.Errorf("sim: request launches no workloads")
	}
	for _, n := range r.Workloads {
		if _, ok := workloads.ByName(n); !ok {
			return fmt.Errorf("sim: unknown workload %q", n)
		}
	}
	if p := r.Sched.entry().places; p > 0 && len(r.Workloads) > p {
		return fmt.Errorf("sim: %s places %d workloads, the request launches %d", r.Sched, p, len(r.Workloads))
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
	cfg := r.config()
	if err := cfg.Validate(); err != nil {
		return err
	}
	// core.Spatial gives kernel 0 the first half of the cores, rounded
	// down: none of one core.
	if r.Sched.Kind == SchedSpatial && cfg.NumCores < 2 {
		return fmt.Errorf("sim: %s on a %d-core machine leaves workload 0 (%s) no core", r.Sched, cfg.NumCores, r.Workloads[0])
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
		if i < len(r.Arrivals) && r.Arrivals[i] > 0 {
			spec := *specs[i] // the catalog's spec is shared: never change it
			spec.Arrival = r.Arrivals[i]
			specs[i] = &spec
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

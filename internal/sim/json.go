package sim

import (
	"encoding/json"
	"fmt"
)

// requestJSON is the wire form of Request used by the HTTP daemon and any
// other JSON client. Policies and scale travel as the same strings the CLI
// flags accept ("lcs", "bcs:4", "gto", "tiny"), so a curl payload reads
// like a gpusim invocation and round-trips through the one parser.
type requestJSON struct {
	Workloads     []string `json:"workloads"`
	Arrivals      []uint64 `json:"arrivals,omitempty"`
	Sched         string   `json:"sched,omitempty"`
	Warp          string   `json:"warp,omitempty"`
	Scale         string   `json:"scale,omitempty"`
	Cores         int      `json:"cores,omitempty"`
	L1Bytes       int      `json:"l1_bytes,omitempty"`
	DRAMSchedFCFS bool     `json:"dram_fcfs,omitempty"`
	MaxCycles     uint64   `json:"max_cycles,omitempty"`
	// PriorityKernel and DeadlineCycles are accepted on input as a
	// convenience spelling of the preemptive scheduler's parameters, for
	// clients that submit priority/deadline jobs without assembling the
	// "preemptive:P:D" string themselves. They fold into Sched on
	// unmarshal and are never emitted: the canonical sched string is the
	// one wire form (and the one cache-key rendering).
	PriorityKernel *int `json:"priority_kernel,omitempty"`
	DeadlineCycles *int `json:"deadline_cycles,omitempty"`
}

// normalizeArrivals maps all-zero arrival lists to nil so that the
// semantically-equal spellings (no arrivals vs. explicit zeros) share one
// wire form and one cache key, matching Request.Key's treatment.
func normalizeArrivals(arr []uint64) []uint64 {
	for _, a := range arr {
		if a != 0 {
			return arr
		}
	}
	return nil
}

// MarshalJSON renders the request in its wire form. The sched, warp, and
// scale names are always emitted (never empty), so a marshaled request is
// self-describing even where the Go zero values applied.
//
//gpulint:cachekey Request
func (r Request) MarshalJSON() ([]byte, error) {
	return json.Marshal(requestJSON{
		Workloads:     r.Workloads,
		Arrivals:      normalizeArrivals(r.Arrivals),
		Sched:         r.Sched.String(),
		Warp:          r.Warp.String(),
		Scale:         ScaleName(r.Scale),
		Cores:         r.Cores,
		L1Bytes:       r.L1Bytes,
		DRAMSchedFCFS: r.DRAMSchedFCFS,
		MaxCycles:     r.MaxCycles,
	})
}

// UnmarshalJSON parses the wire form. Omitted or empty sched/warp/scale
// fields keep the Go zero values (baseline, lrr, tiny); anything present
// goes through the canonical parsers, so bad spellings fail loudly with
// the same messages the CLI flags produce. Unknown JSON fields are
// ignored, which lets callers decode envelope fields (timeouts, labels)
// from the same byte stream.
//
//gpulint:cachekey Request
func (r *Request) UnmarshalJSON(data []byte) error {
	var w requestJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("sim: bad request JSON: %w", err)
	}
	var out Request
	out.Workloads = w.Workloads
	out.Arrivals = normalizeArrivals(w.Arrivals)
	if w.Sched != "" {
		s, err := ParseSched(w.Sched)
		if err != nil {
			return fmt.Errorf("sim: request sched: %w", err)
		}
		out.Sched = s
	}
	if w.Warp != "" {
		p, err := ParseWarpPolicy(w.Warp)
		if err != nil {
			return fmt.Errorf("sim: request warp: %w", err)
		}
		out.Warp = p
	}
	if w.Scale != "" {
		sc, err := ParseScale(w.Scale)
		if err != nil {
			return fmt.Errorf("sim: request scale: %w", err)
		}
		out.Scale = sc
	}
	if w.PriorityKernel != nil || w.DeadlineCycles != nil {
		if out.Sched.Kind != SchedPreemptive {
			return fmt.Errorf("sim: priority_kernel/deadline_cycles require \"sched\": \"preemptive\" (got %q)", out.Sched.String())
		}
		if w.PriorityKernel != nil {
			if *w.PriorityKernel < 1 {
				return fmt.Errorf("sim: priority_kernel must be >= 1 (got %d; kernel 0 already has launch-order priority)", *w.PriorityKernel)
			}
			out.Sched.Arg = *w.PriorityKernel
		}
		if w.DeadlineCycles != nil {
			if *w.DeadlineCycles < 0 {
				return fmt.Errorf("sim: deadline_cycles must be >= 0 (got %d)", *w.DeadlineCycles)
			}
			out.Sched.Arg2 = *w.DeadlineCycles
		}
	}
	if w.Cores < 0 {
		return fmt.Errorf("sim: request cores must be >= 0 (got %d)", w.Cores)
	}
	if w.L1Bytes < 0 {
		return fmt.Errorf("sim: request l1_bytes must be >= 0 (got %d)", w.L1Bytes)
	}
	out.Cores = w.Cores
	out.L1Bytes = w.L1Bytes
	out.DRAMSchedFCFS = w.DRAMSchedFCFS
	out.MaxCycles = w.MaxCycles
	*r = out
	return nil
}

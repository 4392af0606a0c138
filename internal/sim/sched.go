// Package sim is the typed simulation-service layer every entry point
// builds on. It owns the one scheduler registry/parser (replacing the
// string-DSL copies that used to live in internal/harness and the cmd
// tools), a canonical cache key per simulation request, Request.Build (the
// one place a request's machine is assembled), and a Service that runs
// requests through a bounded worker pool with singleflight deduplication,
// context cancellation, and an optional on-disk result cache.
package sim

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"gpusched/internal/core"
)

// SchedKind enumerates the CTA scheduling policies.
type SchedKind int

const (
	// SchedBaseline is occupancy-maximal round-robin dispatch.
	SchedBaseline SchedKind = iota
	// SchedLCS is the paper's lazy CTA scheduling.
	SchedLCS
	// SchedAdaptiveLCS is LCS plus the rate-guarded probing descent.
	SchedAdaptiveLCS
	// SchedDynCTA is the prior-work feedback throttler.
	SchedDynCTA
	// SchedBCS dispatches gangs of consecutive CTAs (Arg = gang width).
	SchedBCS
	// SchedStatic caps every SM at Arg resident CTAs.
	SchedStatic
	// SchedSequential runs launched kernels one at a time.
	SchedSequential
	// SchedSpatial splits the SMs evenly between two kernels.
	SchedSpatial
	// SchedMixed co-schedules two kernels per SM (Arg = first kernel's
	// CTA limit).
	SchedMixed
	// SchedPreemptive is drain/switch CTA preemption: kernel 1 steals slots
	// from the batch kernels; Arg, when nonzero, is the deadline in cycles
	// that gates preemption through the online runtime predictor (0 =
	// eager).
	SchedPreemptive
)

// SchedSpec is a CTA scheduling policy plus its one parameter — the typed
// form of strings like "bcs:2" or "static:3".
type SchedSpec struct {
	Kind SchedKind
	// Arg parameterizes the policy: BCS gang width, static limit, mixed
	// limit, preemptive deadline. 0 selects the policy default.
	Arg int
}

// Typed constructors, mirroring the policies of internal/core.

// Baseline is occupancy-maximal round-robin CTA dispatch.
func Baseline() SchedSpec { return SchedSpec{Kind: SchedBaseline} }

// LCS is lazy CTA scheduling.
func LCS() SchedSpec { return SchedSpec{Kind: SchedLCS} }

// AdaptiveLCS is LCS plus the probing descent.
func AdaptiveLCS() SchedSpec { return SchedSpec{Kind: SchedAdaptiveLCS} }

// DynCTA is the DYNCTA-style prior-work throttler.
func DynCTA() SchedSpec { return SchedSpec{Kind: SchedDynCTA} }

// BCS dispatches gangs of width consecutive CTAs (0 = the default 2).
func BCS(width int) SchedSpec { return SchedSpec{Kind: SchedBCS, Arg: width} }

// Static caps every SM at limit resident CTAs.
func Static(limit int) SchedSpec { return SchedSpec{Kind: SchedStatic, Arg: limit} }

// Sequential runs kernels one at a time (no CKE).
func Sequential() SchedSpec { return SchedSpec{Kind: SchedSequential} }

// Spatial splits the SMs evenly between two kernels.
func Spatial() SchedSpec { return SchedSpec{Kind: SchedSpatial} }

// Mixed co-schedules two kernels per SM, capping the first at limitA.
func Mixed(limitA int) SchedSpec { return SchedSpec{Kind: SchedMixed, Arg: limitA} }

// Preemptive drains batch CTAs to serve kernel 1. deadlineCycles > 0 gates
// preemption on the online predictor missing that absolute deadline; 0
// preempts eagerly.
func Preemptive(deadlineCycles int) SchedSpec {
	return SchedSpec{Kind: SchedPreemptive, Arg: deadlineCycles}
}

// schedEntry is one registry row: names, argument rules, arity and the
// factory.
type schedEntry struct {
	kind      SchedKind
	canonical string // parse name and cache-key prefix
	display   string // report name ("lcs-adaptive" for "adaptive")
	// arg handling: takesArg policies render "name:arg" keys; needsArg
	// rejects a bare name at parse time; defaultArg normalizes Arg == 0.
	takesArg   bool
	needsArg   bool
	defaultArg int
	// argInName embeds the arg in the display name ("static-3").
	argInName bool
	// places is how many launched workloads the policy places (0: all of
	// them); Request.Validate refuses more.
	places int
	build  func(arg int) core.Dispatcher
}

var schedRegistry = []schedEntry{
	{
		kind: SchedBaseline, canonical: "baseline", display: "baseline",
		build: func(int) core.Dispatcher { return core.NewRoundRobin() },
	},
	{
		kind: SchedLCS, canonical: "lcs", display: "lcs",
		build: func(int) core.Dispatcher { return core.NewLCS() },
	},
	{
		kind: SchedAdaptiveLCS, canonical: "adaptive", display: "lcs-adaptive",
		build: func(int) core.Dispatcher { return core.NewAdaptiveLCS() },
	},
	{
		kind: SchedDynCTA, canonical: "dyncta", display: "dyncta",
		build: func(int) core.Dispatcher { return core.NewDynCTA() },
	},
	{
		kind: SchedBCS, canonical: "bcs", display: "bcs",
		takesArg: true, defaultArg: 2,
		build: func(arg int) core.Dispatcher {
			b := core.NewBCS()
			if arg > 0 {
				b.BlockSize = arg
			}
			return b
		},
	},
	{
		kind: SchedStatic, canonical: "static", display: "static",
		takesArg: true, needsArg: true, argInName: true,
		build: func(arg int) core.Dispatcher { return core.NewLimited(arg) },
	},
	{
		kind: SchedSequential, canonical: "sequential", display: "sequential",
		build: func(int) core.Dispatcher { return core.NewSequential() },
	},
	{
		kind: SchedSpatial, canonical: "spatial", display: "spatial",
		places: 2,
		build:  func(int) core.Dispatcher { return core.NewSpatial() },
	},
	{
		kind: SchedMixed, canonical: "mixed", display: "mixed",
		takesArg: true, places: 2,
		build: func(arg int) core.Dispatcher { return core.NewMixed(arg) },
	},
	{
		kind: SchedPreemptive, canonical: "preemptive", display: "preemptive",
		takesArg: true,
		build:    func(arg int) core.Dispatcher { return core.NewPreemptive(uint64(arg)) },
	},
}

func (s SchedSpec) entry() schedEntry {
	for _, e := range schedRegistry {
		if e.kind == s.Kind {
			return e
		}
	}
	// Unknown kinds cannot be built from the exported constructors; treat
	// them as the baseline rather than crash deep in a worker.
	return schedRegistry[0]
}

// arg returns the normalized policy argument (defaults applied).
func (s SchedSpec) arg() int {
	if s.Arg == 0 {
		return s.entry().defaultArg
	}
	return s.Arg
}

// String renders the canonical "name" / "name:arg" form used in cache keys;
// ParseSched inverts it. The cachekey annotation pins every exported
// SchedSpec field into this rendering: a policy parameter that does not
// reach the string would alias distinct simulations in the result cache.
//
//gpulint:cachekey SchedSpec
func (s SchedSpec) String() string {
	e := s.entry()
	if !e.takesArg {
		return e.canonical
	}
	return fmt.Sprintf("%s:%d", e.canonical, s.arg())
}

// MarshalText writes the canonical string: a request's wire form.
func (s SchedSpec) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses text with ParseSched.
func (s *SchedSpec) UnmarshalText(text []byte) error {
	v, err := ParseSched(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Name is the report/display identifier ("lcs-adaptive", "static-3").
func (s SchedSpec) Name() string {
	e := s.entry()
	if e.argInName {
		return fmt.Sprintf("%s-%d", e.display, s.arg())
	}
	return e.display
}

// NewDispatcher instantiates the policy. Each simulation needs a fresh
// dispatcher: they carry per-run state.
func (s SchedSpec) NewDispatcher() core.Dispatcher {
	return s.entry().build(s.arg())
}

// Limits extracts the per-core CTA limits a finished dispatcher decided.
// ok reports whether the policy makes such decisions: the LCS family, whose
// dispatchers have a Limits method.
func (s SchedSpec) Limits(d core.Dispatcher) (limits []int, ok bool) {
	l, ok := d.(interface{ Limits() []int })
	if !ok {
		return nil, false
	}
	return l.Limits(), true
}

// SchedFlagHelp documents ParseSched's grammar for CLI -sched flags.
const SchedFlagHelp = "baseline | lcs | adaptive | dyncta | bcs[:N] | static:N | sequential | spatial | mixed[:N] | preemptive[:D]"

// ParseSched parses the scheduler DSL ("lcs", "bcs:4", "static:3",
// "preemptive:60000", ...). This is the only scheduler parser in the tree;
// every entry point delegates here.
func ParseSched(s string) (SchedSpec, error) {
	name, argStr, hasArg := strings.Cut(s, ":")
	i := slices.IndexFunc(schedRegistry, func(e schedEntry) bool { return e.canonical == name })
	if i < 0 {
		return SchedSpec{}, fmt.Errorf("unknown scheduler %q (want %s)", name, SchedFlagHelp)
	}
	e := schedRegistry[i]
	if hasArg && !e.takesArg {
		return SchedSpec{}, fmt.Errorf("scheduler %q takes no argument", name)
	}
	if e.needsArg && !hasArg {
		return SchedSpec{}, fmt.Errorf("scheduler %q needs an argument, e.g. %s:3", name, e.canonical)
	}
	arg := 0
	if hasArg {
		v, err := strconv.Atoi(argStr)
		if err != nil || v < 0 {
			return SchedSpec{}, fmt.Errorf("bad argument %q for scheduler %q", argStr, name)
		}
		arg = v
	}
	return SchedSpec{Kind: e.kind, Arg: arg}, nil
}

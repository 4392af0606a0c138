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
	// SchedSpatial partitions the SMs between two kernels (Arg = cores for
	// the first kernel, 0 = even split).
	SchedSpatial
	// SchedMixed co-schedules two kernels per SM (Arg = first kernel's
	// CTA limit).
	SchedMixed
	// SchedPreemptive is drain/switch CTA preemption: the priority kernel
	// (Arg, default 1) steals slots from batch kernels; Arg2, when nonzero,
	// is the deadline in cycles that gates preemption through the online
	// runtime predictor (0 = eager).
	SchedPreemptive
)

// SchedSpec is a CTA scheduling policy plus its parameter — the typed form
// of strings like "bcs:2" or "static:3".
type SchedSpec struct {
	Kind SchedKind
	// Arg parameterizes the policy: BCS gang width, static limit, spatial
	// cores-for-first, mixed limit, preemptive priority-kernel index.
	// 0 selects the policy default.
	Arg int
	// Arg2 is the second parameter of two-argument policies (preemptive
	// deadline cycles); 0 selects the policy default. Policies without a
	// second argument normalize it away: the dispatcher never reads it, so
	// the canonical string (and thus the cache key) ignores it too.
	Arg2 int
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

// Spatial partitions the SMs (coresForFirst = 0 means an even split).
func Spatial(coresForFirst int) SchedSpec { return SchedSpec{Kind: SchedSpatial, Arg: coresForFirst} }

// Mixed co-schedules two kernels per SM, capping the first at limitA.
func Mixed(limitA int) SchedSpec { return SchedSpec{Kind: SchedMixed, Arg: limitA} }

// Preemptive drains batch CTAs to serve kernel priorityKernel (0 = the
// default, kernel 1). deadlineCycles > 0 gates preemption on the online
// predictor missing that absolute deadline; 0 preempts eagerly.
func Preemptive(priorityKernel, deadlineCycles int) SchedSpec {
	return SchedSpec{Kind: SchedPreemptive, Arg: priorityKernel, Arg2: deadlineCycles}
}

// schedEntry is one registry row: names, argument rules, and the factory.
type schedEntry struct {
	kind      SchedKind
	canonical string   // parse name and cache-key prefix
	display   string   // report name ("lcs-adaptive" for "adaptive")
	aliases   []string // accepted parse synonyms
	// arg handling: takesArg policies render "name:arg" keys; needsArg
	// rejects a bare name at parse time; defaultArg normalizes Arg == 0.
	// takesArg2 policies additionally accept "name:arg:arg2" (arg2 == 0 is
	// the default and is omitted from the canonical string).
	takesArg   bool
	takesArg2  bool
	needsArg   bool
	defaultArg int
	// argInName embeds the arg in the display name ("static-3").
	argInName bool
	build     func(arg, arg2 int) core.Dispatcher
}

var schedRegistry = []schedEntry{
	{
		kind: SchedBaseline, canonical: "baseline", display: "baseline",
		aliases: []string{"base", "rr"},
		build:   func(int, int) core.Dispatcher { return core.NewRoundRobin() },
	},
	{
		kind: SchedLCS, canonical: "lcs", display: "lcs",
		build: func(int, int) core.Dispatcher { return core.NewLCS() },
	},
	{
		kind: SchedAdaptiveLCS, canonical: "adaptive", display: "lcs-adaptive",
		aliases: []string{"lcs-adaptive"},
		build:   func(int, int) core.Dispatcher { return core.NewAdaptiveLCS() },
	},
	{
		kind: SchedDynCTA, canonical: "dyncta", display: "dyncta",
		build: func(int, int) core.Dispatcher { return core.NewDynCTA() },
	},
	{
		kind: SchedBCS, canonical: "bcs", display: "bcs",
		takesArg: true, defaultArg: 2,
		build: func(arg, _ int) core.Dispatcher {
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
		build: func(arg, _ int) core.Dispatcher { return core.NewLimited(arg) },
	},
	{
		kind: SchedSequential, canonical: "sequential", display: "sequential",
		aliases: []string{"seq"},
		build:   func(int, int) core.Dispatcher { return core.NewSequential() },
	},
	{
		kind: SchedSpatial, canonical: "spatial", display: "spatial",
		takesArg: true,
		build: func(arg, _ int) core.Dispatcher {
			s := core.NewSpatial()
			s.CoresForA = arg
			return s
		},
	},
	{
		kind: SchedMixed, canonical: "mixed", display: "mixed",
		takesArg: true,
		build:    func(arg, _ int) core.Dispatcher { return core.NewMixed(arg) },
	},
	{
		kind: SchedPreemptive, canonical: "preemptive", display: "preemptive",
		aliases:  []string{"preempt"},
		takesArg: true, takesArg2: true, defaultArg: 1,
		build: func(arg, arg2 int) core.Dispatcher {
			return core.NewPreemptive(arg, uint64(arg2))
		},
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
	e := s.entry()
	if s.Arg == 0 && e.defaultArg != 0 {
		return e.defaultArg
	}
	return s.Arg
}

// arg2 returns the normalized second argument: policies without one read it
// as 0 whatever the field holds (NewDispatcher never passes it through), so
// normalizing keeps the canonical string aligned with behavior.
func (s SchedSpec) arg2() int {
	if !s.entry().takesArg2 {
		return 0
	}
	return s.Arg2
}

// String renders the canonical "name" / "name:arg" / "name:arg:arg2" form
// used in cache keys; ParseSched inverts it. The cachekey annotation pins
// every exported SchedSpec field into this rendering: a policy parameter
// that does not reach the string would alias distinct simulations in the
// result cache.
//
//gpulint:cachekey SchedSpec
func (s SchedSpec) String() string {
	e := s.entry()
	if !e.takesArg {
		return e.canonical
	}
	if a2 := s.arg2(); a2 != 0 {
		return fmt.Sprintf("%s:%d:%d", e.canonical, s.arg(), a2)
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
	return s.entry().build(s.arg(), s.arg2())
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
const SchedFlagHelp = "baseline | lcs | adaptive | dyncta | bcs[:N] | static:N | sequential | spatial[:N] | mixed[:N] | preemptive[:P[:D]]"

// ParseSched parses the scheduler DSL ("lcs", "bcs:4", "static:3",
// "preemptive:1:60000", ...). This is the only scheduler parser in the
// tree; every entry point delegates here.
func ParseSched(s string) (SchedSpec, error) {
	name, argStr, hasArg := strings.Cut(s, ":")
	argStr, arg2Str, hasArg2 := strings.Cut(argStr, ":")
	var e *schedEntry
	for i := range schedRegistry {
		cand := &schedRegistry[i]
		if cand.canonical == name {
			e = cand
			break
		}
		for _, a := range cand.aliases {
			if a == name {
				e = cand
				break
			}
		}
		if e != nil {
			break
		}
	}
	if e == nil {
		return SchedSpec{}, fmt.Errorf("unknown scheduler %q (want %s)", name, SchedFlagHelp)
	}
	if hasArg && !e.takesArg {
		return SchedSpec{}, fmt.Errorf("scheduler %q takes no argument", name)
	}
	if hasArg2 && !e.takesArg2 {
		return SchedSpec{}, fmt.Errorf("scheduler %q takes no second argument", name)
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
	arg2 := 0
	if hasArg2 {
		v, err := strconv.Atoi(arg2Str)
		if err != nil || v < 0 {
			return SchedSpec{}, fmt.Errorf("bad second argument %q for scheduler %q", arg2Str, name)
		}
		arg2 = v
	}
	return SchedSpec{Kind: e.kind, Arg: arg, Arg2: arg2}, nil
}

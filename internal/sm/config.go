// Package sm models one streaming multiprocessor: warp contexts with a
// register scoreboard, per-cycle issue by pluggable warp schedulers (LRR,
// GTO, and the paper's block-aware BAWS), ALU/SFU/LDST pipelines, CTA
// barriers, and the per-CTA issue counters that lazy CTA scheduling samples.
//
// The SM owns its L1 (from internal/mem) and talks to the shared memory
// system only through misses. The CTA scheduler (internal/core) decides
// which CTAs arrive and when; the SM enforces the resource limits and runs
// them.
package sm

import (
	"fmt"
	"slices"
	"strings"

	"gpusched/internal/kernel"
)

// Policy selects the warp scheduling discipline of an SM.
type Policy uint8

const (
	// PolicyLRR is loose round-robin: resume scanning after the last
	// issuing warp, giving every warp equal issue opportunity.
	PolicyLRR Policy = iota
	// PolicyGTO is greedy-then-oldest: keep issuing the same warp until it
	// stalls, then fall back to the oldest ready warp (by CTA arrival).
	// This is the scheduler LCS leverages: it concentrates issue on old
	// CTAs, making the per-CTA issue histogram meaningful.
	PolicyGTO
	// PolicyBAWS is the block-aware warp scheduler proposed alongside BCS:
	// greedy-then-oldest, but age is the CTA *block* arrival, so the CTAs
	// of one block progress together and their shared lines stay hot.
	PolicyBAWS
	// PolicyTwoLevel is a two-level round-robin scheduler (Narasiman et
	// al., MICRO 2011 style): a small active set issues LRR; a warp that
	// blocks on a pending memory result is swapped out for a waiting
	// warp, so the active set stays compute-dense.
	PolicyTwoLevel
)

// policyNames is the one table of warp-policy names: String renders it and
// the text methods read it, so a -warp flag, a request's wire form and its
// cache key all spell a policy the same way.
var policyNames = [...]string{PolicyLRR: "lrr", PolicyGTO: "gto", PolicyBAWS: "baws", PolicyTwoLevel: "two-level"}

// String names the policy.
func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return "policy?"
}

// MarshalText writes the policy's name; a policy without one is an error.
func (p Policy) MarshalText() ([]byte, error) {
	if int(p) >= len(policyNames) {
		return nil, fmt.Errorf("sm: warp policy %d has no name", p)
	}
	return []byte(policyNames[p]), nil
}

// UnmarshalText parses a policy name.
func (p *Policy) UnmarshalText(text []byte) error {
	i := slices.Index(policyNames[:], string(text))
	if i < 0 {
		return fmt.Errorf("unknown warp policy %q (want %s)", text, strings.Join(policyNames[:], " | "))
	}
	*p = Policy(i)
	return nil
}

// Config holds the per-SM pipeline parameters. Start from DefaultConfig.
type Config struct {
	// NumSchedulers is the number of warp schedulers (issue slots/cycle).
	NumSchedulers int
	// ALULatency is the operand-ready latency of IALU/FALU results.
	ALULatency uint64
	// SFULatency is the result latency of special-function ops.
	SFULatency uint64
	// SFUInterval is the per-scheduler SFU initiation interval (cycles
	// between SFU issues), modeling the narrower SFU pipe.
	SFUInterval uint64
	// SharedLatency is the scratchpad access latency (conflict-free).
	SharedLatency uint64
	// LDSTQueueCap bounds in-flight memory instructions per SM.
	LDSTQueueCap int
	// ActiveSetSize is the per-scheduler active warp set for
	// PolicyTwoLevel (default 8).
	ActiveSetSize int
	// MaxPendingLoads bounds outstanding load/atomic instructions
	// (the pending-access table; tokens index into it).
	MaxPendingLoads int
	// Limits are the occupancy resources the SM enforces.
	Limits kernel.CoreLimits
	// WarpPolicy selects the warp scheduler.
	WarpPolicy Policy
}

// DefaultConfig returns Fermi-class SM parameters (GTX480 ballpark).
func DefaultConfig() Config {
	return Config{
		NumSchedulers:   2,
		ALULatency:      10,
		SFULatency:      20,
		SFUInterval:     8,
		SharedLatency:   24,
		LDSTQueueCap:    8,
		ActiveSetSize:   8,
		MaxPendingLoads: 64,
		Limits: kernel.CoreLimits{
			MaxThreads:     1536,
			MaxCTAs:        8,
			MaxWarps:       48,
			Registers:      32768,
			SharedMemBytes: 48 * 1024,
		},
		WarpPolicy: PolicyGTO,
	}
}

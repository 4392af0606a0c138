// Package workloads defines the benchmark suite: fourteen parametric
// synthetic kernels modeled on the Rodinia / Parboil / CUDA-SDK programs
// CTA-scheduling papers evaluate on. Each kernel reproduces the
// scheduling-relevant character of its model — arithmetic intensity, memory
// divergence, intra- and inter-CTA locality, barrier structure, occupancy
// limits — using deterministic generated instruction streams.
package workloads

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"gpusched/internal/kernel"
)

// Scale selects problem size: tests want sub-50ms runs, the paper harness
// wants several occupancy waves per kernel.
type Scale int

const (
	// ScaleTest is for unit/integration tests (tiny grids).
	ScaleTest Scale = iota
	// ScaleSmall is for quick benchmarks and -short harness runs.
	ScaleSmall
	// ScaleFull is the paper-experiment size.
	ScaleFull
)

// scaleNames is the one table of scale names: String renders it and
// ParseScale reads it. Scale has no text methods on purpose: the
// benchmark's run records store a scale as a number.
var scaleNames = [...]string{ScaleTest: "tiny", ScaleSmall: "small", ScaleFull: "full"}

// String names the scale as the -size flags and a request's wire form spell
// it.
func (s Scale) String() string {
	if s >= 0 && int(s) < len(scaleNames) {
		return scaleNames[s]
	}
	return fmt.Sprintf("scale-%d", int(s))
}

// ParseScale parses a scale name.
func ParseScale(name string) (Scale, error) {
	i := slices.Index(scaleNames[:], name)
	if i < 0 {
		return 0, fmt.Errorf("unknown scale %q (want %s)", name, strings.Join(scaleNames[:], " | "))
	}
	return Scale(i), nil
}

// pick returns the value for the scale.
func pick(s Scale, test, small, full int) int {
	switch s {
	case ScaleTest:
		return test
	case ScaleSmall:
		return small
	default:
		return full
	}
}

// Class is the behaviour family a workload belongs to; the experiment
// tables group and interpret results by it.
type Class string

const (
	// ClassCompute is arithmetic/SFU throughput bound.
	ClassCompute Class = "compute"
	// ClassStream is memory-bandwidth bound with no reuse.
	ClassStream Class = "stream"
	// ClassCache is cache-capacity sensitive (resident working set).
	ClassCache Class = "cache"
	// ClassLocality has inter-CTA data sharing (BCS targets).
	ClassLocality Class = "locality"
	// ClassIrregular is divergent/latency bound.
	ClassIrregular Class = "irregular"
	// ClassSync is barrier/communication heavy.
	ClassSync Class = "sync"
)

// Workload is one suite member.
type Workload struct {
	// Name is the short identifier used everywhere.
	Name string
	// ModeledOn names the real benchmark whose behaviour this generator
	// mimics.
	ModeledOn string
	// Class is the behaviour family.
	Class Class
	// InterCTALocality marks BCS candidates (consecutive CTAs share data).
	InterCTALocality bool
	// Build returns the kernel at the given scale: the spec built for that
	// scale once, at registration, and shared by every caller, like its
	// program. Never change it: a caller that sets Arrival sets it on a
	// copy (sim.Request.Build).
	Build func(Scale) *kernel.Spec
}

var catalog []Workload

func register(w Workload) {
	// A builder is a pure function of the scale, and its program is one
	// template shared by every warp, so each scale is built once, here,
	// and Build hands out that spec.
	var specs [ScaleFull + 1]*kernel.Spec
	for s := range specs {
		specs[s] = w.Build(Scale(s))
	}
	w.Build = func(s Scale) *kernel.Spec {
		return specs[pick(s, int(ScaleTest), int(ScaleSmall), int(ScaleFull))]
	}
	catalog = append(catalog, w)
}

// sorted returns the catalog in name order (file init order is not a
// meaningful report order).
func sorted() []Workload {
	out := make([]Workload, len(catalog))
	copy(out, catalog)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// All returns the suite in report (name) order.
func All() []Workload {
	return sorted()
}

// Names returns the suite names in report order.
func Names() []string {
	ws := sorted()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// ByName finds a workload.
func ByName(name string) (Workload, bool) {
	for _, w := range catalog {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Region bases within a kernel's private 4 GiB address space. 256 MiB
// spacing keeps regions disjoint at every problem size used here.
const (
	regionA = 0 << 28
	regionB = 1 << 28
	regionC = 2 << 28
	regionD = 3 << 28
)

package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The layers that are only ever called from inside gpu.RunContext (sm, mem,
// core, parexec) cannot be spanned from the benchmark's files, so their
// host time is read from the traced run's own CPU profile: every sample is
// attributed to exactly one layer by the rules in layerOf. The profile is
// the gzipped protobuf runtime/pprof writes; the repo has no dependency
// that parses it, so the few fields needed are decoded here.

// stackSample is one profile sample: function names from the leaf outwards
// and the CPU time it stands for.
type stackSample struct {
	funcs []string
	ns    float64
}

// protoFields walks the top-level fields of one protobuf message.
func protoFields(b []byte, visit func(num int, varint uint64, data []byte) error) error {
	for len(b) > 0 {
		tag, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad tag")
		}
		b = b[n:]
		num, wire := int(tag>>3), tag&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := visit(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := visit(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints reads a repeated integer field, packed or not.
func repeatedVarints(dst []uint64, varint uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, varint)
	}
	for len(data) > 0 {
		v, n := uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, v)
		data = data[n:]
	}
	return dst
}

// parseProfile decodes a runtime/pprof CPU profile into stacks.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost inlined call first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	err = protoFields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			if err := protoFields(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					s.locs = repeatedVarints(s.locs, v, d)
				case 2:
					s.values = repeatedVarints(s.values, v, d)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := protoFields(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return protoFields(d, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := protoFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{ns: float64(s.values[len(s.values)-1])} // CPU profiles end with cpu/nanoseconds
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// layerOfPackage names the layer of each package of this repository. The
// empty string marks a support package (instruction and kernel records,
// counters): its time belongs to whichever layer called it.
var layerOfPackage = map[string]string{
	"gpusched/internal/workloads":   "workloads",
	"gpusched/internal/gpu":         "gpu",
	"gpusched/internal/gpu/parexec": "parexec",
	"gpusched/internal/sm":          "sm",
	"gpusched/internal/mem":         "mem",
	"gpusched/internal/core":        "core",
	"gpusched/internal/sim":         "sim",
	"gpusched/internal/harness":     "harness",
	"gpusched/internal/server":      "server",
	"gpusched/internal/fleet":       "fleet",
	"gpusched/internal/isa":         "",
	"gpusched/internal/kernel":      "",
	"gpusched/internal/stats":       "",
	"gpusched/internal/trace":       "",
	"gpusched":                      "",
	// The benchmark's own load generator and checks; the second name is
	// what the package is called inside its test binary.
	"main":               "other",
	"gpusched/benchmark": "other",
}

// splitFunc splits a profile function name into package path, pointer
// receiver type (empty for plain functions) and function or method name.
// Type arguments of generic code are dropped first: they may themselves
// hold dots and slashes.
func splitFunc(name string) (pkg, recv, fn string) {
	if i := strings.IndexByte(name, '['); i >= 0 {
		if j := strings.LastIndexByte(name, ']'); j > i {
			name = name[:i] + name[j+1:]
		}
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name, "", ""
	}
	pkg = name[:slash+1+dot]
	rest := name[slash+1+dot+1:]
	if strings.HasPrefix(rest, "(*") {
		if end := strings.IndexByte(rest, ')'); end > 0 {
			return pkg, rest[2:end], strings.TrimPrefix(rest[end+1:], ".")
		}
	}
	return pkg, "", rest
}

// smIssue are the SM methods that pick a warp and decide whether it may
// issue; the scheduler type's own methods count too.
var smIssue = []string{"pickOrReason", "canIssue", "issueOne", "operandsReady"}

// memPart names the part of the memory system a mem receiver type belongs
// to. Cache and MSHR serve both the L1 and the L2 and are resolved by
// their caller.
var memPart = map[string]string{
	"L1": "l1", "L2Partition": "xbar_l2", "System": "xbar_l2", "port": "xbar_l2", "pipe": "xbar_l2",
	"DRAMChannel": "dram",
}

// layerOf attributes one stack to a layer and, inside sm and mem, to a
// part of it. Walking out from the leaf, the first frame in the Go runtime
// or in a layer package decides; standard-library and support-package
// frames are passed over, so encoding or sorting done for a layer counts
// as that layer's time. A stack with no such frame is "other". A package
// under gpusched/ that the table does not know is an error: a new layer
// must be added here before its time can be reported.
func layerOf(funcs []string) (layer, part string, err error) {
	for i, name := range funcs {
		pkg, recv, fn := splitFunc(name)
		if pkg == "internal/runtime/syscall" {
			continue // a system call is its caller's work, not the Go runtime's
		}
		if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
			return "runtime", "", nil
		}
		l, known := layerOfPackage[pkg]
		if !known {
			if strings.HasPrefix(pkg, "gpusched/") || pkg == "gpusched" {
				return "", "", fmt.Errorf("profile: %s is in package %s, which has no layer", name, pkg)
			}
			continue // standard library
		}
		switch l {
		case "":
			continue
		case "sm":
			if recv == "scheduler" {
				return l, "issue", nil
			}
			if recv == "ldstUnit" {
				return l, "ldst", nil
			}
			for _, m := range smIssue {
				if fn == m || strings.HasPrefix(fn, m+".") {
					return l, "issue", nil
				}
			}
		case "mem":
			for _, up := range funcs[i:] {
				p, r, _ := splitFunc(up)
				if p != pkg {
					break
				}
				if part, ok := memPart[r]; ok {
					return l, part, nil
				}
			}
			return l, "l1", nil
		}
		return l, "", nil
	}
	return "other", "", nil
}

// cpuShares sums a profile into CPU seconds per layer and per "layer.part".
func cpuShares(samples []stackSample) (seconds map[string]float64, total float64, err error) {
	seconds = map[string]float64{}
	for _, s := range samples {
		layer, part, err := layerOf(s.funcs)
		if err != nil {
			return nil, 0, err
		}
		sec := s.ns / 1e9
		seconds[layer] += sec
		if part != "" {
			seconds[layer+"."+part] += sec
		}
		total += sec
	}
	return seconds, total, nil
}

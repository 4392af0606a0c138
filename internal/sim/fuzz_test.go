package sim_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gpusched/internal/sim"
	"gpusched/internal/sm"
	"gpusched/internal/workloads"
)

// FuzzRequestJSON fuzzes the wire form of Request for the property the
// result cache depends on: unmarshal(marshal(r)) has r's cache key, and a
// second marshal hop is a fixed point. The wire form is Request's own
// struct tags, so a new field travels without being named a second time;
// this holds the names of sched, warp and scale to round trips (it is
// what caught an earlier, field-by-field wire copy silently dropping a
// since-retired execution flag). A nonempty spelling replaces the typed
// scheduler: one ParseSched accepts round-trips like any other, and one it
// refuses must be refused inside a body too.
func FuzzRequestJSON(f *testing.F) {
	f.Add("vadd", uint8(0), 0, "", uint8(0), uint8(0), 0, 0, false, uint64(0), uint64(0))
	f.Add("spmv", uint8(4), 2, "", uint8(2), uint8(1), 8, 16<<10, true, uint64(5000), uint64(0))
	f.Add("", uint8(5), -3, "", uint8(3), uint8(2), -1, -7, false, uint64(1)<<40, uint64(12345))
	f.Add("dct8x8", uint8(9), 60000, "", uint8(1), uint8(1), 0, 0, false, uint64(0), uint64(4096))
	f.Add("vadd", uint8(0), 0, "preemptive:60000", uint8(0), uint8(0), 0, 0, false, uint64(0), uint64(0))
	for _, refused := range []string{"preemptive:1:2", "spatial:3", "rr"} {
		f.Add("vadd", uint8(0), 0, refused, uint8(0), uint8(0), 0, 0, false, uint64(0), uint64(0))
	}
	f.Fuzz(func(t *testing.T, name string, kind uint8, arg int, spelling string, warp, scale uint8, cores, l1 int, fcfs bool, maxCycles uint64, arrival uint64) {
		// Clamp to the constructible domain: policy args and size overrides
		// are non-negative, enum fields take their declared values, and
		// workload names must survive json.Marshal's UTF-8 sanitization
		// unchanged (an invalid name is a Validate failure, not a wire bug).
		if arg < 0 {
			arg = 0
		}
		if cores < 0 {
			cores = 0
		}
		if l1 < 0 {
			l1 = 0
		}
		name = strings.ToValidUTF8(name, "")
		sched := sim.SchedSpec{Kind: sim.SchedKind(kind % 10), Arg: arg}
		if spelling != "" {
			parsed, err := sim.ParseSched(spelling)
			if err != nil {
				body, _ := json.Marshal(map[string]any{"workloads": []string{"vadd"}, "sched": spelling})
				if json.Unmarshal(body, new(sim.Request)) == nil {
					t.Fatalf("ParseSched refuses %q (%v), but a body carrying it decodes: %s", spelling, err, body)
				}
				return
			}
			sched = parsed
		}
		req := sim.Request{
			Workloads:     []string{name},
			Arrivals:      []uint64{arrival},
			Sched:         sched,
			Warp:          sm.Policy(warp % 4),
			Scale:         workloads.Scale(scale % 3),
			Cores:         cores,
			L1Bytes:       l1,
			DRAMSchedFCFS: fcfs,
			MaxCycles:     maxCycles,
		}
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal %+v: %v", req, err)
		}
		var back sim.Request
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal own wire form %s: %v", data, err)
		}
		if back.Key() != req.Key() {
			t.Fatalf("JSON round trip changed the cache key\n  wire: %s\n  key:  %q\n  back: %q", data, req.Key(), back.Key())
		}
		data2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatalf("wire form is not a fixed point: %s -> %s", data, data2)
		}
	})
}

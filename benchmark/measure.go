package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"gpusched/internal/gpu"
	"gpusched/internal/sim"
)

// item is one timed operation of a pass. Items of the same kind do the
// same work on every pass, so their times are samples of one quantity.
type item struct {
	kind string
	run  func(tr *tracer, id string) itemOut
}

// itemOut is what an item hands back for checking and accounting.
type itemOut struct {
	// cycles and instr are the simulated work delivered to the caller. On
	// fleet-serve that includes results served from a cache.
	cycles, instr uint64
	// simulated lists the results of the simulations the item ran; the
	// per-layer work counts are summed from them.
	simulated []gpu.Result
	limits    []int // CTA limits LCS-family dispatchers settled on
	// canon is the canonical encoding of the item's results. Every sample
	// of a kind must produce the same bytes, traced or not.
	canon []byte
	// ops counts the operations checked (simulations, experiments,
	// requests); failures describes each one that failed.
	ops      int
	failures []string
	// req is what the item's clients saw, when it makes requests.
	req requestStats
	// svc is what the sim.Service (or the shards' services) behind the
	// item did for it.
	svc sim.Stats
}

// requestStats describes the requests of a closed-loop load generator.
type requestStats struct {
	// hitMS and missMS are client-side latencies in ms, split by whether
	// the key was new to the fleet.
	hitMS, missMS []float64
	// busyS is the time the client goroutines spent in their loops and
	// idleS the time they waited at the end of a block for the last reply
	// to another client, both summed over clients.
	busyS, idleS float64
	http5xx      int
	http429      int
}

func (r *requestStats) add(o requestStats) {
	r.hitMS = append(r.hitMS, o.hitMS...)
	r.missMS = append(r.missMS, o.missMS...)
	r.busyS += o.busyS
	r.idleS += o.idleS
	r.http5xx += o.http5xx
	r.http429 += o.http429
}

func (r *requestStats) all() []float64 {
	return append(append([]float64(nil), r.hitMS...), r.missMS...)
}

// instance is a workload after set-up: it yields the items of each pass
// and is closed when the run ends.
type instance struct {
	pass  func(rng *rand.Rand) []item
	close func()
	// extra, when set, is called once after the traced section for the
	// per-layer numbers that take work of their own: direct-call timings,
	// the paper's shape metrics. It returns the operations it checked.
	extra func(m map[string]float64) (ops int, failures []string)
}

type kindSamples struct {
	wall    []float64 // seconds
	cycles  []float64 // simulated work delivered
	instr   []float64
	allocMB []float64
	gcs     []float64
	first   itemOut
}

// phase is one timed section: every sample taken in it, by kind.
type phase struct {
	kinds    map[string]*kindSamples
	wallS    float64 // the whole section
	itemsS   float64 // the items alone, added up
	cpuS     float64 // process user+system time over the section
	ops      int
	failed   int
	failures []string // the first few, for the record
	req      requestStats
	svc      sim.Stats
}

// canonical renders v as the bytes result digests are taken over.
func canonical(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // results are plain structs of numbers and strings
	}
	return b
}

const maxFailuresKept = 20

func (ph *phase) fail(msg string) {
	ph.failed++
	if len(ph.failures) < maxFailuresKept {
		ph.failures = append(ph.failures, msg)
	}
}

// processCPU returns the user plus system CPU seconds the process has used.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measure runs passes until seconds have gone by and minRounds whole
// passes are done, checking after each item so that a run does not
// overshoot by a whole pass. refs carries the canonical result of each kind
// across sections: a traced section must reproduce the untraced one.
func measure(inst *instance, seconds float64, minRounds int, rng *rand.Rand, tr *tracer, refs map[string][]byte) *phase {
	ph := &phase{kinds: map[string]*kindSamples{}}
	cpu0 := processCPU()
	start := time.Now()
	n := 0
	for round := 0; ; round++ {
		items := inst.pass(rng)
		for i, it := range items {
			id := fmt.Sprintf("%s-%d", it.kind, n)
			n++
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			sp := tr.begin(id, "benchmark", it.kind)
			out := it.run(tr, id)
			tr.end(sp)
			wall := time.Since(t0).Seconds()
			runtime.ReadMemStats(&m1)

			k := ph.kinds[it.kind]
			if k == nil {
				k = &kindSamples{first: out}
				ph.kinds[it.kind] = k
			}
			k.wall = append(k.wall, wall)
			ph.itemsS += wall
			k.cycles = append(k.cycles, float64(out.cycles))
			k.instr = append(k.instr, float64(out.instr))
			k.allocMB = append(k.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
			k.gcs = append(k.gcs, float64(m1.NumGC-m0.NumGC))
			ph.ops += out.ops
			for _, f := range out.failures {
				ph.fail(f)
			}
			if ref, ok := refs[it.kind]; !ok {
				refs[it.kind] = out.canon
			} else if string(ref) != string(out.canon) {
				ph.fail(id + ": results differ from the first sample of this kind")
			}
			ph.req.add(out.req)
			addStats(&ph.svc, out.svc)

			done := round
			if i == len(items)-1 {
				done++
			}
			if done >= minRounds && time.Since(start).Seconds() >= seconds {
				ph.wallS = time.Since(start).Seconds()
				ph.cpuS = processCPU() - cpu0
				return ph
			}
		}
	}
}

func addStats(dst *sim.Stats, s sim.Stats) {
	dst.Simulated += s.Simulated
	dst.MemoHits += s.MemoHits
	dst.DiskHits += s.DiskHits
	dst.PeerHits += s.PeerHits
	dst.DiskEvictions += s.DiskEvictions
	dst.Evicted += s.Evicted
	dst.WallSeconds += s.WallSeconds
	dst.SimCycles += s.SimCycles
}

func subStats(a, b sim.Stats) sim.Stats {
	return sim.Stats{
		Simulated: a.Simulated - b.Simulated, MemoHits: a.MemoHits - b.MemoHits,
		DiskHits: a.DiskHits - b.DiskHits, PeerHits: a.PeerHits - b.PeerHits,
		DiskEvictions: a.DiskEvictions - b.DiskEvictions, Evicted: a.Evicted - b.Evicted,
		WallSeconds: a.WallSeconds - b.WallSeconds, SimCycles: a.SimCycles - b.SimCycles,
	}
}

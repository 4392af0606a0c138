package workloads

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sync"
	"testing"

	"gpusched/internal/isa"
	"gpusched/internal/kernel"
)

// pinnedStreams is the FNV-64a digest of every registered workload's
// instruction stream at ScaleTest (streamDigest). A change to a builder
// that moves any op, register, mask, bank-conflict degree or active lane's
// address changes its digest; the simulated results depend on nothing else
// of a program.
var pinnedStreams = map[string]string{
	"backprop":      "8c0f2ebb03b2d2a5",
	"bfs":           "dd41b5d7109bd5b8",
	"blackscholes":  "029ec8eb1c2bd225",
	"conv2d":        "d3ac4bcad3b66165",
	"dct8x8":        "72a3492a21b58aa5",
	"histo":         "e86a968a3ef12d25",
	"hotspot":       "0e6720558da85525",
	"kmeans":        "be5f2f1869290525",
	"lud":           "ad1a6a09c266ed25",
	"nn":            "4892d7aca7783625",
	"pathfinder":    "5957dabc70236525",
	"reduce":        "36671b5d64851da5",
	"sgemm":         "22d2b3acd37fb025",
	"spmv":          "9fba871092c38c85",
	"srad":          "b76fa5d578296825",
	"stencil":       "4092132a6cf080a5",
	"streamcluster": "8cd51e196916bf25",
	"transpose":     "efe7fd84a2783725",
	"vadd":          "4fe4dc5e3818caa5",
}

// hashInstr feeds the fields of wi the core reads into h: op, registers,
// mask, bank conflict and the active lanes' addresses. Only a global op has
// addresses; another op's active lanes hash as zeros, as they read when a
// program cleared the whole record before every instruction.
func hashInstr(h hash.Hash64, wi *isa.WarpInstr) {
	var b [4]byte
	h.Write([]byte{byte(wi.Op), byte(wi.Dst), byte(wi.Src[0]), byte(wi.Src[1]), byte(wi.Src[2]), wi.BankConflict})
	binary.LittleEndian.PutUint32(b[:], wi.Mask)
	h.Write(b[:])
	for l := 0; l < isa.WarpSize; l++ {
		if wi.Mask&(1<<l) != 0 {
			addr := uint32(0)
			if wi.Op.IsGlobal() {
				addr = wi.Addr(l)
			}
			binary.LittleEndian.PutUint32(b[:], addr)
			h.Write(b[:])
		}
	}
}

// warpDigest hashes one warp's whole stream, ending with its length.
func warpDigest(h hash.Hash64, spec *kernel.Spec, cta, warp int) {
	var buf isa.WarpInstr
	c := isa.Cursor{CTA: cta, Warp: warp}
	n := uint32(0)
	for ; spec.Program.Next(&c, &buf); n++ {
		hashInstr(h, &buf)
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], n)
	h.Write(b[:])
}

// streamDigest hashes every warp of every CTA of spec, in (CTA, warp) order.
func streamDigest(spec *kernel.Spec) string {
	h := fnv.New64a()
	for c := 0; c < spec.NumCTAs(); c++ {
		for w := 0; w < spec.WarpsPerCTA(); w++ {
			warpDigest(h, spec, c, w)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestProgramStreams: every registered workload emits, at ScaleTest, the
// instruction streams it emitted when the digests were pinned.
func TestProgramStreams(t *testing.T) {
	for _, w := range All() {
		got := streamDigest(w.Build(ScaleTest))
		want, ok := pinnedStreams[w.Name]
		if !ok {
			t.Errorf("%s: no pinned digest (got %q)", w.Name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: stream digest %s, pinned %s", w.Name, got, want)
		}
	}
	if len(pinnedStreams) != len(All()) {
		t.Errorf("%d pinned digests for %d workloads", len(pinnedStreams), len(All()))
	}
}

// TestSharedTemplates: at every scale, a registered workload's second Build
// returns the program of its first, and goroutines walking that program at
// once, as the SMs of concurrent simulations do, each reproduce the pinned
// streams. Under -race this fails if a walk writes to the program.
func TestSharedTemplates(t *testing.T) {
	for _, w := range All() {
		for s := ScaleTest; s <= ScaleFull; s++ {
			if w.Build(s).Program != w.Build(s).Program {
				t.Fatalf("%s scale %d: a second Build has a program of its own", w.Name, s)
			}
		}
		const walkers = 4
		spec := w.Build(ScaleTest)
		got := make([]string, walkers)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = streamDigest(spec)
			}()
		}
		wg.Wait()
		for i, d := range got {
			if d != pinnedStreams[w.Name] {
				t.Errorf("%s: walker %d digest %s, pinned %s", w.Name, i, d, pinnedStreams[w.Name])
			}
		}
	}
}

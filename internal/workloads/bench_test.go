package workloads

import (
	"testing"

	"gpusched/internal/isa"
)

// BenchmarkLoopProgramNext times the two reads of a global op: Decode, what
// a warp's fetch pays, and Next, what the LDST unit pays for its addresses
// when it accepts the op. Each replays the cursors of CTA 0 warp 0's global
// ops at ScaleSmall in turn, into one buffer. sgemm's ops are all affine,
// kmeans's include its centroid broadcasts, and half of spmv's are gathers.
func BenchmarkLoopProgramNext(b *testing.B) {
	for _, name := range []string{"sgemm", "kmeans", "spmv"} {
		w, _ := ByName(name)
		p := w.Build(ScaleSmall).Program
		var ops []isa.Cursor
		var buf isa.WarpInstr
		for c, from := (isa.Cursor{}), (isa.Cursor{}); p.Next(&c, &buf); from = c {
			if buf.Op.IsGlobal() {
				ops = append(ops, from)
			}
		}
		// One cursor serves every call: a cursor passed to a program
		// escapes, and one per call would time the allocator.
		var c isa.Cursor
		b.Run(name+"/Next", func(b *testing.B) {
			for i, j := 0, 0; i < b.N; i, j = i+1, j+1 {
				if j == len(ops) {
					j = 0
				}
				c = ops[j]
				p.Next(&c, &buf)
			}
		})
		b.Run(name+"/Decode", func(b *testing.B) {
			var in isa.Instr
			for i, j := 0, 0; i < b.N; i, j = i+1, j+1 {
				if j == len(ops) {
					j = 0
				}
				c = ops[j]
				p.Decode(&c, &in)
			}
		})
	}
}

package workloads

import (
	"testing"

	"gpusched/internal/isa"
)

// BenchmarkLoopProgramNext times one Next of a global op, what a warp's
// fetch and the LDST unit's second fetch of each global access pay: the
// cursors of CTA 0 warp 0's global ops at ScaleSmall, replayed in turn
// into one buffer. sgemm's ops are all affine, kmeans's include its
// centroid broadcasts, and half of spmv's are gathers.
func BenchmarkLoopProgramNext(b *testing.B) {
	for _, name := range []string{"sgemm", "kmeans", "spmv"} {
		b.Run(name, func(b *testing.B) {
			w, _ := ByName(name)
			p := w.Build(ScaleSmall).Program(0, 0)
			var ops []isa.Cursor
			var buf isa.WarpInstr
			for c, from := (isa.Cursor{}), (isa.Cursor{}); p.Next(&c, &buf); from = c {
				if buf.Op.IsGlobal() {
					ops = append(ops, from)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := ops[i%len(ops)]
				p.Next(&c, &buf)
			}
		})
	}
}

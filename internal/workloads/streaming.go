package workloads

import (
	"gpusched/internal/isa"
	"gpusched/internal/kernel"
)

func init() {
	register(Workload{
		Name:      "vadd",
		ModeledOn: "CUDA SDK vectorAdd",
		Class:     ClassStream,
		Build:     buildVAdd,
	})
	register(Workload{
		Name:      "nn",
		ModeledOn: "Rodinia nn (nearest neighbor)",
		Class:     ClassStream,
		Build:     buildNN,
	})
}

// buildVAdd is grid-stride streaming c[i] = a[i] + b[i]: perfectly coalesced,
// zero reuse, bandwidth bound. The canonical CTA-count-insensitive workload.
func buildVAdd(s Scale) *kernel.Spec {
	ctas := pick(s, 24, 270, 540)
	iters := pick(s, 3, 10, 12)
	const warpsPerCTA = 8
	totalWarps := ctas * warpsPerCTA
	stride := uint32(totalWarps * isa.WarpSize * 4) // bytes per grid-stride step
	at := func(region uint32) func(*isa.Cursor) uint32 {
		return func(c *isa.Cursor) uint32 {
			return region + warpBase(c, warpsPerCTA, 4) + uint32(c.Iter)*stride
		}
	}

	return &kernel.Spec{
		Name:          "vadd",
		Grid:          ctas,
		Block:         warpsPerCTA * isa.WarpSize,
		RegsPerThread: 12,
		Program: shared(&loopProgram{
			iters: iters,
			body: []Emit{
				ldg(1, at(regionA)),
				ldg(2, at(regionB)),
				alu(isa.OpFAlu, 3, 1, 2),
				stg(3, at(regionC)),
				branch(),
			},
		}),
	}
}

// buildNN streams an array-of-structs record file (4 fields, 16B records):
// each field load spreads a warp over 4 cache lines — the moderate memory
// divergence of Rodinia's nn — with a short distance computation per record.
func buildNN(s Scale) *kernel.Spec {
	ctas := pick(s, 32, 360, 720)
	iters := pick(s, 4, 12, 16)
	const warpsPerCTA = 4
	totalWarps := ctas * warpsPerCTA
	recStride := uint32(totalWarps * isa.WarpSize * 16) // bytes per step, 16B records
	field := func(f uint32) func(*isa.Cursor) uint32 {
		return func(c *isa.Cursor) uint32 {
			return regionA + warpBase(c, warpsPerCTA, 16) + uint32(c.Iter)*recStride + f*4
		}
	}
	out := func(c *isa.Cursor) uint32 {
		return regionC + (warpBase(c, warpsPerCTA, 16)/4 + uint32(c.Iter)*(recStride/4))
	}

	return &kernel.Spec{
		Name:          "nn",
		Grid:          ctas,
		Block:         warpsPerCTA * isa.WarpSize,
		RegsPerThread: 16,
		Program: shared(&loopProgram{
			iters: iters,
			body: []Emit{
				ldgStride(1, field(0), 16),
				ldgStride(2, field(1), 16),
				ldgStride(3, field(2), 16),
				ldgStride(4, field(3), 16),
				alu(isa.OpFAlu, 5, 1, 2),
				alu(isa.OpFAlu, 6, 3, 4),
				alu(isa.OpFAlu, 7, 5, 6),
				alu(isa.OpFAlu, 7, 7, 7),
				stg(7, out),
				branch(),
			},
		}),
	}
}

package workloads

import (
	"gpusched/internal/isa"
	"gpusched/internal/kernel"
)

func init() {
	register(Workload{
		Name:      "reduce",
		ModeledOn: "CUDA SDK reduction",
		Class:     ClassSync,
		Build:     buildReduce,
	})
	register(Workload{
		Name:      "transpose",
		ModeledOn: "CUDA SDK transpose (tiled via shared memory)",
		Class:     ClassSync,
		Build:     buildTranspose,
	})
}

// buildReduce is the two-phase reduction: a grid-stride streaming
// accumulation, then a barrier-separated shared-memory tree whose active
// mask halves every level (warp-level divergence as the tree narrows).
func buildReduce(s Scale) *kernel.Spec {
	ctas := pick(s, 24, 270, 540)
	loads := pick(s, 2, 6, 8)
	const warpsPerCTA = 8
	totalWarps := ctas * warpsPerCTA
	stride := uint32(totalWarps * isa.WarpSize * 4)

	var body []Emit
	for i := 0; i < loads; i++ {
		off := uint32(i) * stride
		body = append(body,
			ldg(1, func(c *isa.Cursor) uint32 { return regionA + warpBase(c, warpsPerCTA, 4) + off }),
			alu(isa.OpFAlu, 2, 1, 2),
		)
	}
	// Tree phase: mask halves per level.
	levelMask := func(level int) func(*isa.Cursor) uint32 {
		lanes := isa.WarpSize >> uint(level+1)
		m := uint32(1)<<uint(lanes) - 1
		if lanes >= 32 {
			m = isa.FullMask
		}
		return func(*isa.Cursor) uint32 { return m }
	}
	epilogue := []Emit{sts(2, 1), bar()}
	for level := 0; level < 5; level++ {
		epilogue = append(epilogue,
			lds(3, 1),
			aluMasked(isa.OpFAlu, 2, levelMask(level), 2, 3),
			stsMasked(2, levelMask(level)),
			bar(),
		)
	}
	epilogue = append(epilogue, stg(2, func(c *isa.Cursor) uint32 {
		return regionC + uint32(gwarp(c, warpsPerCTA))*4
	}))

	return &kernel.Spec{
		Name:            "reduce",
		Grid:            kernel.Dim3{X: ctas},
		Block:           kernel.Dim3{X: warpsPerCTA * isa.WarpSize},
		RegsPerThread:   14,
		SharedMemPerCTA: 1024,
		Program:         shared(&loopProgram{iters: 1, body: body, epilogue: epilogue}),
	}
}

// buildTranspose stages tiles through shared memory between barriers; reads
// are coalesced row-major, writes land in a transposed tile layout whose
// scatter across DRAM rows defeats row-buffer locality.
func buildTranspose(s Scale) *kernel.Spec {
	ctas := pick(s, 24, 270, 540)
	iters := pick(s, 4, 10, 12)
	const warpsPerCTA = 8
	const tileBytes = 4 * 1024
	in := func(c *isa.Cursor) uint32 {
		return regionA + uint32(c.CTA*iters+c.Iter)*tileBytes + warpOff(c)
	}
	// Transposed output: tiles scatter with a large prime-ish stride so
	// consecutive tiles land in different DRAM rows.
	out := func(c *isa.Cursor) uint32 {
		t := uint32(c.CTA*iters + c.Iter)
		return regionC + (t*37%4096)*tileBytes + warpOff(c)
	}

	return &kernel.Spec{
		Name:            "transpose",
		Grid:            kernel.Dim3{X: ctas},
		Block:           kernel.Dim3{X: warpsPerCTA * isa.WarpSize},
		RegsPerThread:   16,
		SharedMemPerCTA: 4 * 1024,
		Program: shared(&loopProgram{
			iters: iters,
			body: []Emit{
				ldg(1, in),
				sts(1, 2), // minor conflict writing columns
				bar(),
				lds(2, 1),
				stg(2, out),
				bar(),
			},
		}),
	}
}

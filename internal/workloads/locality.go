package workloads

import (
	"gpusched/internal/isa"
	"gpusched/internal/kernel"
)

func init() {
	register(Workload{
		Name:             "stencil",
		ModeledOn:        "Parboil stencil (2D 5-point, row per CTA)",
		Class:            ClassLocality,
		InterCTALocality: true,
		Build:            buildStencil,
	})
	register(Workload{
		Name:             "hotspot",
		ModeledOn:        "Rodinia hotspot",
		Class:            ClassLocality,
		InterCTALocality: true,
		Build:            buildHotspot,
	})
	register(Workload{
		Name:             "conv2d",
		ModeledOn:        "PolyBench 2D convolution (5x1 column kernel)",
		Class:            ClassLocality,
		InterCTALocality: true,
		Build:            buildConv2D,
	})
	register(Workload{
		Name:             "pathfinder",
		ModeledOn:        "Rodinia pathfinder (wavefront)",
		Class:            ClassSync,
		InterCTALocality: true,
		Build:            buildPathfinder,
	})
}

// guard keeps halo loads at image edges from wrapping the 32-bit offset
// space.
const guard = 4096

// rowLine is the row-per-CTA decomposition the stencil family uses: CTA i
// produces output row i of the image and reads input rows i..i+span-1.
// Consecutive CTAs therefore share span-1 of their span input rows — the
// inter-CTA data sharing that BCS gang dispatch turns into same-core L1/MSHR
// hits (and that BAWS keeps temporally aligned). Warp w owns a contiguous
// column chunk; each of the kernel's iters iterations advances one cache
// line through the chunk. rowLine returns the address of the line the warp
// at c reads of row CTA+off in region.
func rowLine(iters int, region uint32, off int) func(*isa.Cursor) uint32 {
	chunk := uint32(iters) * 128 // one warp's column chunk
	return func(c *isa.Cursor) uint32 {
		return region + guard + uint32(c.CTA+off)*8*chunk + uint32(c.Warp)*chunk + uint32(c.Iter)*128
	}
}

// buildStencil: CTA i computes row i from input rows i, i+1, i+2. Two of
// the three rows are re-read by CTA i+1, so paired dispatch deduplicates
// two thirds of the global loads into one core's L1.
func buildStencil(s Scale) *kernel.Spec {
	ctas := pick(s, 24, 270, 540)
	iters := pick(s, 4, 12, 16)
	const warpsPerCTA = 8

	return &kernel.Spec{
		Name:          "stencil",
		Grid:          kernel.Dim3{X: ctas},
		Block:         kernel.Dim3{X: warpsPerCTA * isa.WarpSize},
		RegsPerThread: 16,
		Program: shared(&loopProgram{
			iters: iters,
			body: []Emit{
				ldg(1, rowLine(iters, regionA, 0)),
				ldg(2, rowLine(iters, regionA, 1)),
				ldg(3, rowLine(iters, regionA, 2)),
				alu(isa.OpFAlu, 4, 1, 2),
				alu(isa.OpFAlu, 5, 3, 4),
				alu(isa.OpFAlu, 6, 5, 2),
				alu(isa.OpFAlu, 6, 6, 6),
				stg(6, rowLine(iters, regionC, 0)),
				branch(),
			},
		}),
	}
}

// buildHotspot reads a three-row temperature neighbourhood plus the power
// row and runs a heavier arithmetic tail; two of four input rows are shared
// with the adjacent CTA.
func buildHotspot(s Scale) *kernel.Spec {
	ctas := pick(s, 24, 270, 540)
	iters := pick(s, 4, 12, 16)
	const warpsPerCTA = 8
	body := []Emit{
		ldg(1, rowLine(iters, regionA, 0)),
		ldg(2, rowLine(iters, regionA, 1)),
		ldg(3, rowLine(iters, regionA, 2)),
		ldg(4, rowLine(iters, regionB, 0)),
	}
	for i := 0; i < 6; i++ {
		body = append(body, alu(isa.OpFAlu, isa.Reg(5+i%2), isa.Reg(1+i%4), isa.Reg(5+(i+1)%2)))
	}
	body = append(body,
		stg(5, rowLine(iters, regionC, 0)),
		branch(),
	)

	return &kernel.Spec{
		Name:          "hotspot",
		Grid:          kernel.Dim3{X: ctas},
		Block:         kernel.Dim3{X: warpsPerCTA * isa.WarpSize},
		RegsPerThread: 20,
		Program:       shared(&loopProgram{iters: iters, body: body}),
	}
}

// buildConv2D applies a 5-tap column kernel: CTA i reads input rows i..i+4,
// four of which the next CTA re-reads — the strongest inter-CTA sharing in
// the suite. The filter is staged through shared memory once per CTA.
func buildConv2D(s Scale) *kernel.Spec {
	ctas := pick(s, 20, 225, 450)
	iters := pick(s, 3, 10, 12)
	const warpsPerCTA = 8
	body := make([]Emit, 0, 22)
	for k := 0; k < 5; k++ {
		body = append(body,
			ldg(isa.Reg(1+k), rowLine(iters, regionA, k)),
			lds(7, 1),
			alu(isa.OpFAlu, 8, isa.Reg(1+k), 7),
			alu(isa.OpFAlu, 9, 8, 9),
		)
	}
	body = append(body,
		stg(9, rowLine(iters, regionC, 0)),
		branch(),
	)

	return &kernel.Spec{
		Name:            "conv2d",
		Grid:            kernel.Dim3{X: ctas},
		Block:           kernel.Dim3{X: warpsPerCTA * isa.WarpSize},
		RegsPerThread:   24,
		SharedMemPerCTA: 4 * 1024,
		Program: shared(&loopProgram{
			iters: iters,
			prologue: []Emit{
				ldg(7, func(c *isa.Cursor) uint32 { return regionB + uint32(c.Warp)*128 }),
				sts(7, 1),
				bar(),
			},
			body: body,
		}),
	}
}

// buildPathfinder is the wavefront pattern: each step consumes one input
// row (shared with the adjacent CTA), exchanges boundary values through
// shared memory, and synchronizes twice per step.
func buildPathfinder(s Scale) *kernel.Spec {
	ctas := pick(s, 24, 270, 540)
	iters := pick(s, 4, 14, 20)
	const warpsPerCTA = 8

	return &kernel.Spec{
		Name:            "pathfinder",
		Grid:            kernel.Dim3{X: ctas},
		Block:           kernel.Dim3{X: warpsPerCTA * isa.WarpSize},
		RegsPerThread:   16,
		SharedMemPerCTA: 2 * 1024,
		Program: shared(&loopProgram{
			iters: iters,
			body: []Emit{
				// Both this CTA's row and the next CTA's row feed the
				// wavefront step (one row shared per adjacent pair).
				ldg(1, rowLine(iters, regionA, 0)),
				ldg(2, rowLine(iters, regionA, 1)),
				alu(isa.OpIAlu, 3, 1, 2),
				sts(3, 1),
				bar(),
				lds(4, 1),
				alu(isa.OpFAlu, 5, 4, 3),
				bar(),
				stg(5, rowLine(iters, regionC, 0)),
			},
		}),
	}
}

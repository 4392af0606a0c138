package workloads

import (
	"gpusched/internal/isa"
	"gpusched/internal/kernel"
)

func init() {
	register(Workload{
		Name:      "lud",
		ModeledOn: "Rodinia lud (LU decomposition, diagonal phase)",
		Class:     ClassSync,
		Build:     buildLUD,
	})
	register(Workload{
		Name:             "srad",
		ModeledOn:        "Rodinia srad (speckle-reducing diffusion)",
		Class:            ClassLocality,
		InterCTALocality: true,
		Build:            buildSRAD,
	})
	register(Workload{
		Name:      "backprop",
		ModeledOn: "Rodinia backprop (layer forward pass)",
		Class:     ClassSync,
		Build:     buildBackprop,
	})
	register(Workload{
		Name:      "streamcluster",
		ModeledOn: "Rodinia streamcluster (pgain distance phase)",
		Class:     ClassCache,
		Build:     buildStreamcluster,
	})
	register(Workload{
		Name:      "dct8x8",
		ModeledOn: "CUDA SDK dct8x8 (shared-memory block transform)",
		Class:     ClassCompute,
		Build:     buildDCT8x8,
	})
}

// buildLUD models the wavefront phase of LU decomposition: per step the
// active lane set shrinks (the submatrix contracts), with a barrier and a
// pivot-row broadcast between steps. Warp-level divergence grows as the
// wavefront advances — the under-utilization pattern LCS exposes.
func buildLUD(s Scale) *kernel.Spec {
	ctas := pick(s, 24, 270, 540)
	steps := pick(s, 4, 12, 16)
	const warpsPerCTA = 8
	totalWarps := ctas * warpsPerCTA
	stride := uint32(totalWarps * isa.WarpSize * 4)
	shrink := func(c *isa.Cursor) uint32 {
		// Active lanes halve every four steps: 32,32,32,32,16,...
		lanes := 32 >> uint(c.Iter/4)
		if lanes < 4 {
			lanes = 4
		}
		return uint32(1)<<uint(lanes) - 1
	}

	return &kernel.Spec{
		Name:            "lud",
		Grid:            kernel.Dim3{X: ctas},
		Block:           kernel.Dim3{X: warpsPerCTA * isa.WarpSize},
		RegsPerThread:   18,
		SharedMemPerCTA: 2 * 1024,
		Program: shared(&loopProgram{
			iters: steps,
			body: []Emit{
				// Pivot row broadcast: all active lanes read one line.
				ldgMasked(1, shrink, func(c *isa.Cursor, lane int) uint32 {
					return regionA + uint32(c.Iter)*128 + uint32(lane%32)*4
				}),
				// Own row elements.
				ldgMasked(2, shrink, func(c *isa.Cursor, lane int) uint32 {
					return regionB + warpBase(c, warpsPerCTA, 4) + uint32(c.Iter)*stride + uint32(lane)*4
				}),
				aluMasked(isa.OpFAlu, 3, shrink, 1, 2),
				aluMasked(isa.OpFAlu, 4, shrink, 3, 4),
				stsMasked(4, shrink),
				bar(),
				lds(5, 1),
				bar(),
			},
		}),
	}
}

// buildSRAD models one diffusion sweep: like the stencil family it uses the
// row-per-CTA decomposition (rows shared with the adjacent CTA) but reads
// four neighbours plus a per-CTA statistics line, and stores two outputs
// (the updated image and the gradient).
func buildSRAD(s Scale) *kernel.Spec {
	ctas := pick(s, 24, 270, 540)
	iters := pick(s, 4, 12, 16)
	const warpsPerCTA = 8

	return &kernel.Spec{
		Name:          "srad",
		Grid:          kernel.Dim3{X: ctas},
		Block:         kernel.Dim3{X: warpsPerCTA * isa.WarpSize},
		RegsPerThread: 24,
		Program: shared(&loopProgram{
			iters: iters,
			body: []Emit{
				ldg(1, rowLine(iters, regionA, 0)),
				ldg(2, rowLine(iters, regionA, 1)),
				ldg(3, rowLine(iters, regionA, 2)),
				ldgLanes(4, func(c *isa.Cursor, lane int) uint32 {
					return uint32(regionD) + uint32(c.CTA)*128 + uint32(lane%32)*4
				}),
				alu(isa.OpFAlu, 5, 1, 2),
				alu(isa.OpFAlu, 6, 3, 4),
				alu(isa.OpSfu, 7, 5),
				alu(isa.OpFAlu, 8, 7, 6),
				stg(8, rowLine(iters, regionB, 0)),
				stg(5, rowLine(iters, regionC, 0)),
				branch(),
			},
		}),
	}
}

// buildBackprop models a layer's forward pass: stream input activations,
// accumulate weighted sums, then a shared-memory reduction tree with
// halving masks — the streaming+synchronization mix of Rodinia's backprop.
func buildBackprop(s Scale) *kernel.Spec {
	ctas := pick(s, 24, 270, 540)
	inputs := pick(s, 3, 8, 10)
	const warpsPerCTA = 8
	totalWarps := ctas * warpsPerCTA
	stride := uint32(totalWarps * isa.WarpSize * 4)
	var body []Emit
	for i := 0; i < inputs; i++ {
		off := uint32(i) * stride
		body = append(body,
			ldg(1, func(c *isa.Cursor) uint32 { return regionA + warpBase(c, warpsPerCTA, 4) + off }),
			ldg(2, func(c *isa.Cursor) uint32 { return regionB + warpBase(c, warpsPerCTA, 4) + off }),
			alu(isa.OpFAlu, 3, 1, 2),
			alu(isa.OpFAlu, 4, 3, 4),
		)
	}
	halving := func(level int) func(*isa.Cursor) uint32 {
		lanes := isa.WarpSize >> uint(level+1)
		m := uint32(1)<<uint(lanes) - 1
		return func(*isa.Cursor) uint32 { return m }
	}
	epilogue := []Emit{sts(4, 1), bar()}
	for level := 0; level < 4; level++ {
		epilogue = append(epilogue,
			lds(5, 1),
			aluMasked(isa.OpFAlu, 4, halving(level), 4, 5),
			stsMasked(4, halving(level)),
			bar(),
		)
	}
	epilogue = append(epilogue,
		alu(isa.OpSfu, 6, 4), // activation function
		stg(6, func(c *isa.Cursor) uint32 { return regionC + warpBase(c, warpsPerCTA, 4) }),
	)

	return &kernel.Spec{
		Name:            "backprop",
		Grid:            kernel.Dim3{X: ctas},
		Block:           kernel.Dim3{X: warpsPerCTA * isa.WarpSize},
		RegsPerThread:   16,
		SharedMemPerCTA: 1024,
		Program:         shared(&loopProgram{iters: 1, body: body, epilogue: epilogue}),
	}
}

// buildStreamcluster models the pgain distance phase: every CTA owns a
// 4 KiB candidate-center window it rereads for each streamed point — a
// second cache-capacity-sensitive kernel, but with *coalesced* window reads
// (unlike spmv's gathers), so its thrashing is pure capacity, not
// divergence.
func buildStreamcluster(s Scale) *kernel.Spec {
	ctas := pick(s, 24, 270, 540)
	points := pick(s, 4, 12, 16)
	const warpsPerCTA = 8
	const windowBytes = 4 * 1024
	totalWarps := ctas * warpsPerCTA
	stride := uint32(totalWarps * isa.WarpSize * 4)
	point := func(region uint32) func(*isa.Cursor) uint32 {
		return func(c *isa.Cursor) uint32 {
			return region + warpBase(c, warpsPerCTA, 4) + uint32(c.Iter)*stride
		}
	}
	// Four coalesced re-reads of the CTA's center window, rotating through
	// it so the whole 4KB stays live.
	center := func(k int) func(*isa.Cursor) uint32 {
		return func(c *isa.Cursor) uint32 {
			window := uint32(regionB) + uint32(c.CTA)*windowBytes
			return window + uint32((c.Iter*4+k)%(windowBytes/128))*128
		}
	}

	return &kernel.Spec{
		Name:          "streamcluster",
		Grid:          kernel.Dim3{X: ctas},
		Block:         kernel.Dim3{X: warpsPerCTA * isa.WarpSize},
		RegsPerThread: 20,
		Program: shared(&loopProgram{
			iters: points,
			body: []Emit{
				ldg(1, point(regionA)),
				ldg(2, center(0)),
				alu(isa.OpFAlu, 6, 1, 2),
				ldg(3, center(1)),
				alu(isa.OpFAlu, 6, 6, 3),
				ldg(4, center(2)),
				alu(isa.OpFAlu, 6, 6, 4),
				ldg(5, center(3)),
				alu(isa.OpFAlu, 6, 6, 5),
				stg(6, point(regionC)),
				branch(),
			},
		}),
	}
}

// buildDCT8x8 models the shared-memory 8x8 block transform: coalesced tile
// load, staged row/column passes through the scratchpad (the column pass
// with bank conflicts), FALU-dense butterflies, coalesced store.
func buildDCT8x8(s Scale) *kernel.Spec {
	ctas := pick(s, 24, 270, 540)
	tiles := pick(s, 3, 8, 10)
	const warpsPerCTA = 8
	const tileBytes = 4 * 1024
	at := func(region uint32) func(*isa.Cursor) uint32 {
		return func(c *isa.Cursor) uint32 {
			return region + uint32(c.CTA*tiles+c.Iter)*tileBytes + warpOff(c)
		}
	}
	body := []Emit{
		ldg(1, at(regionA)),
		sts(1, 1),
		bar(),
	}
	// Row pass: conflict-free; butterflies.
	for i := 0; i < 4; i++ {
		body = append(body, lds(2, 1),
			alu(isa.OpFAlu, 3, 2, 3),
			alu(isa.OpFAlu, 4, 3, 2))
	}
	body = append(body, sts(4, 1), bar())
	// Column pass: stride access, 4-way bank conflicts.
	for i := 0; i < 4; i++ {
		body = append(body, lds(5, 4),
			alu(isa.OpFAlu, 6, 5, 6),
			alu(isa.OpFAlu, 7, 6, 5))
	}
	body = append(body,
		stg(7, at(regionC)),
		bar(),
	)

	return &kernel.Spec{
		Name:            "dct8x8",
		Grid:            kernel.Dim3{X: ctas},
		Block:           kernel.Dim3{X: warpsPerCTA * isa.WarpSize},
		RegsPerThread:   22,
		SharedMemPerCTA: 4 * 1024,
		Program:         shared(&loopProgram{iters: tiles, body: body}),
	}
}

package workloads

import (
	"gpusched/internal/isa"
	"gpusched/internal/kernel"
)

func init() {
	register(Workload{
		Name:             "sgemm",
		ModeledOn:        "Parboil sgemm (tiled matrix multiply)",
		Class:            ClassCompute,
		InterCTALocality: true, // CTAs in one tile row share A tiles
		Build:            buildSGEMM,
	})
	register(Workload{
		Name:      "blackscholes",
		ModeledOn: "CUDA SDK BlackScholes",
		Class:     ClassCompute,
		Build:     buildBlackScholes,
	})
	register(Workload{
		Name:      "kmeans",
		ModeledOn: "Rodinia kmeans (distance phase)",
		Class:     ClassCompute,
		Build:     buildKMeans,
	})
}

// buildSGEMM is shared-memory tiled matrix multiply: per K-tile, both input
// tiles are staged through the scratchpad between barriers and consumed by
// an FFMA-dense inner loop. Register pressure (28/thread) caps occupancy at
// 4 CTAs/SM. Consecutive CTAs compute adjacent output tiles in the same
// tile row, so they load identical A tiles — inter-CTA locality.
func buildSGEMM(s Scale) *kernel.Spec {
	ctas := pick(s, 16, 180, 360)
	ktiles := pick(s, 3, 12, 16)
	const warpsPerCTA = 8
	const tileBytes = 16 * 16 * 4 // 1KB 16x16 float tile
	const tilesPerRow = 8         // output tiles per tile row

	aTile := func(c *isa.Cursor) uint32 {
		return regionA + uint32(c.CTA/tilesPerRow*ktiles+c.Iter)*tileBytes + warpOff(c)
	}
	bTile := func(c *isa.Cursor) uint32 {
		return regionB + uint32(c.Iter*tilesPerRow+c.CTA%tilesPerRow)*tileBytes + warpOff(c)
	}
	body := []Emit{
		ldg(1, aTile),
		ldg(2, bTile),
		bar(),
	}
	for i := 0; i < 8; i++ {
		body = append(body,
			lds(3, 1),
			alu(isa.OpFAlu, isa.Reg(4+i%4), 3, isa.Reg(4+i%4)),
		)
	}
	body = append(body, bar())
	out := func(c *isa.Cursor) uint32 {
		return regionC + uint32(c.CTA)*tileBytes + warpOff(c)
	}

	return &kernel.Spec{
		Name:            "sgemm",
		Grid:            kernel.Dim3{X: ctas},
		Block:           kernel.Dim3{X: warpsPerCTA * isa.WarpSize},
		RegsPerThread:   28,
		SharedMemPerCTA: 2 * tileBytes,
		Program: shared(&loopProgram{
			iters:    ktiles,
			body:     body,
			epilogue: []Emit{stg(4, out)},
		}),
	}
}

// buildBlackScholes streams option parameters through a deep FALU+SFU chain:
// the SFU initiation interval makes it special-function throughput bound.
func buildBlackScholes(s Scale) *kernel.Spec {
	ctas := pick(s, 24, 270, 540)
	iters := pick(s, 3, 8, 10)
	const warpsPerCTA = 8
	totalWarps := ctas * warpsPerCTA
	stride := uint32(totalWarps * isa.WarpSize * 4)
	at := func(region uint32) func(*isa.Cursor) uint32 {
		return func(c *isa.Cursor) uint32 {
			return region + warpBase(c, warpsPerCTA, 4) + uint32(c.Iter)*stride
		}
	}
	body := []Emit{
		ldg(1, at(regionA)),
		ldg(2, at(regionB)),
	}
	// d1/d2/CND evaluation: dependent FALUs punctuated by SFUs.
	for i := 0; i < 3; i++ {
		body = append(body,
			alu(isa.OpFAlu, 3, 1, 2),
			alu(isa.OpFAlu, 4, 3, 1),
			alu(isa.OpSfu, 5, 4),
			alu(isa.OpFAlu, 6, 5, 3),
			alu(isa.OpSfu, 7, 6),
			alu(isa.OpFAlu, 8, 7, 5),
		)
	}
	body = append(body,
		stg(8, at(regionC)),
		stg(6, at(regionD)),
		branch(),
	)

	return &kernel.Spec{
		Name:          "blackscholes",
		Grid:          kernel.Dim3{X: ctas},
		Block:         kernel.Dim3{X: warpsPerCTA * isa.WarpSize},
		RegsPerThread: 20,
		Program:       shared(&loopProgram{iters: iters, body: body}),
	}
}

// buildKMeans streams points and accumulates distances to a small shared
// centroid table: the table (one line per centroid, identical for every
// warp) lives in L1 after warm-up, so the kernel is arithmetic bound with a
// high L1 hit rate — the classic LCS donor that saturates with few CTAs.
func buildKMeans(s Scale) *kernel.Spec {
	ctas := pick(s, 24, 270, 540)
	iters := pick(s, 3, 8, 10)
	const warpsPerCTA = 8
	const centroids = 8
	totalWarps := ctas * warpsPerCTA
	stride := uint32(totalWarps * isa.WarpSize * 4)
	feat := func(region uint32) func(*isa.Cursor) uint32 {
		return func(c *isa.Cursor) uint32 {
			return region + warpBase(c, warpsPerCTA, 4) + uint32(c.Iter)*stride
		}
	}
	body := []Emit{
		ldg(1, feat(regionA)),
		ldg(2, feat(regionA+64<<20)),
	}
	for k := 0; k < centroids; k++ {
		line := uint32(regionB + k*128)
		body = append(body,
			// Broadcast load: every lane reads the centroid line.
			ldgLanes(3, func(_ *isa.Cursor, lane int) uint32 { return line + uint32(lane%32)*4 }),
			alu(isa.OpFAlu, 4, 1, 3),
			alu(isa.OpFAlu, 5, 4, 2),
			alu(isa.OpFAlu, 6, 5, 6),
		)
	}
	body = append(body, stg(6, feat(regionC)), branch())

	return &kernel.Spec{
		Name:          "kmeans",
		Grid:          kernel.Dim3{X: ctas},
		Block:         kernel.Dim3{X: warpsPerCTA * isa.WarpSize},
		RegsPerThread: 18,
		Program:       shared(&loopProgram{iters: iters, body: body}),
	}
}

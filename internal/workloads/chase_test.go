package workloads

import (
	"testing"

	"gpusched/internal/isa"
)

// sliceChase is the materialized ChaseSpec body the lazy program replaced:
// the reference instruction stream for warp w of CTA ctaID.
func sliceChase(ctaID, w, warpsPerCTA, iters int) *isa.SliceProgram {
	instrs := make([]isa.WarpInstr, 0, 2*iters+1)
	for i := 0; i < iters; i++ {
		var ld isa.WarpInstr
		ld.Op = isa.OpLoadGlobal
		ld.Dst = 2
		ld.Mask = isa.FullMask
		line := uint32(((ctaID*warpsPerCTA+w)*iters + i) * 128)
		for lane := 0; lane < isa.WarpSize; lane++ {
			ld.Addrs[lane] = line + uint32(lane*4)
		}
		instrs = append(instrs, ld,
			isa.WarpInstr{Op: isa.OpIAlu, Dst: 3, Src: [3]isa.Reg{2}, Mask: isa.FullMask})
	}
	instrs = append(instrs, isa.WarpInstr{Op: isa.OpExit, Mask: isa.FullMask})
	return &isa.SliceProgram{Instrs: instrs}
}

// sameInstr reports whether a and b are one instruction to the core: equal
// op, registers, bank conflict and mask, and for a global op equal addresses
// on every active lane, each read as a formula or from the lane array. A
// non-global op must carry the same formula fields (none, once cleared).
func sameInstr(a, b *isa.WarpInstr) bool {
	if a.Op != b.Op || a.Dst != b.Dst || a.Src != b.Src || a.BankConflict != b.BankConflict || a.Mask != b.Mask {
		return false
	}
	if !a.Op.IsGlobal() {
		return a.Affine == b.Affine && a.Base == b.Base && a.Stride == b.Stride
	}
	for l := 0; l < isa.WarpSize; l++ {
		if a.Mask&(1<<l) != 0 && a.Addr(l) != b.Addr(l) {
			return false
		}
	}
	return true
}

// TestChaseStreamMatchesSlice: the lazy ChaseSpec program emits exactly the
// instructions the materialized one did, into a buffer left dirty by the
// previous call, and ends where it ended.
func TestChaseStreamMatchesSlice(t *testing.T) {
	junk := isa.WarpInstr{Op: isa.OpStoreShared, Dst: 9, Src: [3]isa.Reg{7, 8, 9}, Mask: 0x5, BankConflict: 3,
		Affine: true, Base: 0xDEADBEEF, Stride: 3}
	for i := range junk.Addrs {
		junk.Addrs[i] = 0xDEADBEEF
	}
	type pair struct{ cta, warp int }
	for _, tc := range []struct {
		ctas, warps, iters int
		pairs              []pair // nil: every (cta, warp)
	}{
		{1, 1, 1, nil},
		{3, 2, 5, nil},
		{480, 1, 256, []pair{{0, 0}, {1, 0}, {17, 0}, {239, 0}, {240, 0}, {401, 0}, {479, 0}}},
	} {
		spec := ChaseSpec(tc.ctas, tc.warps, tc.iters)
		pairs := tc.pairs
		if pairs == nil {
			for c := 0; c < tc.ctas; c++ {
				for w := 0; w < tc.warps; w++ {
					pairs = append(pairs, pair{c, w})
				}
			}
		}
		for _, p := range pairs {
			got, want := spec.Program, sliceChase(p.cta, p.warp, tc.warps, tc.iters)
			gc, wc := isa.Cursor{CTA: p.cta, Warp: p.warp}, isa.Cursor{}
			var g, w isa.WarpInstr
			for n := 0; ; n++ {
				g = junk
				gok, wok := got.Next(&gc, &g), want.Next(&wc, &w)
				if gok != wok {
					t.Fatalf("chase(%d,%d,%d) cta %d warp %d: stream ends differ at instr %d (lazy %v, slice %v)",
						tc.ctas, tc.warps, tc.iters, p.cta, p.warp, n, gok, wok)
				}
				if !gok {
					break
				}
				if !sameInstr(&g, &w) {
					t.Fatalf("chase(%d,%d,%d) cta %d warp %d instr %d:\n lazy  %+v\n slice %+v",
						tc.ctas, tc.warps, tc.iters, p.cta, p.warp, n, g, w)
				}
			}
		}
	}
}

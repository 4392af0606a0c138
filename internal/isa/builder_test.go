package isa

import "testing"

func TestBuilderAllForms(t *testing.T) {
	var gather [WarpSize]uint32
	for i := range gather {
		gather[i] = uint32(i * 256)
	}
	p := NewBuilder().
		IAlu(1, 0).
		FAlu(2, 1).
		Sfu(3, 2).
		LoadGlobal(4, 0).
		LoadGlobalStride(5, 0, 64).
		LoadGlobalAddrs(6, gather).
		StoreGlobal(6, 4096).
		LoadShared(7, 2).
		StoreShared(7, 4).
		Atomic(8, gather, 0xFF).
		Branch().
		Barrier().
		Exit().
		Build()

	wantOps := []Op{
		OpIAlu, OpFAlu, OpSfu, OpLoadGlobal, OpLoadGlobal, OpLoadGlobal,
		OpStoreGlobal, OpLoadShared, OpStoreShared, OpAtomicGlobal,
		OpBranch, OpBarrier, OpExit,
	}
	if len(p.instrs) != len(wantOps) {
		t.Fatalf("built %d instrs, want %d", len(p.instrs), len(wantOps))
	}
	for i, want := range wantOps {
		if p.instrs[i].Op != want {
			t.Errorf("instr %d op = %v, want %v", i, p.instrs[i].Op, want)
		}
	}
	if wi := instrAt(p, 4); wi.Addr(1) != 64 {
		t.Errorf("stride load lane 1 addr = %d, want 64", wi.Addr(1))
	}
	if wi := instrAt(p, 5); wi.Addr(3) != 768 {
		t.Errorf("gather lane 3 addr = %d, want 768", wi.Addr(3))
	}
	if p.instrs[6].Src[0] != 6 {
		t.Errorf("store source = %v, want r6", p.instrs[6].Src[0])
	}
	if p.instrs[7].BankConflict != 2 || p.instrs[8].BankConflict != 4 {
		t.Error("bank conflict degrees lost")
	}
	if p.instrs[9].Mask != 0xFF {
		t.Errorf("atomic mask = %#x, want 0xFF", p.instrs[9].Mask)
	}
	// Only the gather and the atomic keep lanes.
	if len(p.lanes) != 2 {
		t.Errorf("program keeps %d lane arrays, want 2 (the gather and the atomic)", len(p.lanes))
	}
	if got := NewBuilder().IAlu(1).Len(); got != 1 {
		t.Errorf("Len = %d, want 1", got)
	}
}

// TestBuilderAppendRaw: Next gives back what Append was given, but the
// lanes of an op that does not read them.
func TestBuilderAppendRaw(t *testing.T) {
	nop := WarpInstr{Instr: Instr{Op: OpNop, Mask: 0xF0F0}}
	gather := WarpInstr{Instr: Instr{Op: OpLoadGlobal, Dst: 3, Src: [3]Reg{1, 2}, Mask: 0xF0F0}}
	for l := range gather.Addrs {
		gather.Addrs[l] = uint32(l * 4096)
	}
	affine := WarpInstr{Instr: Instr{Op: OpStoreGlobal, Src: [3]Reg{3}, Mask: FullMask}}
	FillLinear(&affine, 256, 8)
	p := NewBuilder().Append(nop).Append(gather).Append(affine).Build()
	for i, want := range []WarpInstr{nop, gather, affine} {
		if got := instrAt(p, i); got != want {
			t.Errorf("instr %d: Append altered instruction: %+v, want %+v", i, got, want)
		}
	}
}

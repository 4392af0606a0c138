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
	if len(p.Instrs) != len(wantOps) {
		t.Fatalf("built %d instrs, want %d", len(p.Instrs), len(wantOps))
	}
	for i, want := range wantOps {
		if p.Instrs[i].Op != want {
			t.Errorf("instr %d op = %v, want %v", i, p.Instrs[i].Op, want)
		}
	}
	if p.Instrs[4].Addr(1) != 64 {
		t.Errorf("stride load lane 1 addr = %d, want 64", p.Instrs[4].Addr(1))
	}
	if p.Instrs[5].Addr(3) != 768 {
		t.Errorf("gather lane 3 addr = %d, want 768", p.Instrs[5].Addr(3))
	}
	if p.Instrs[6].Src[0] != 6 {
		t.Errorf("store source = %v, want r6", p.Instrs[6].Src[0])
	}
	if p.Instrs[7].BankConflict != 2 || p.Instrs[8].BankConflict != 4 {
		t.Error("bank conflict degrees lost")
	}
	if p.Instrs[9].Mask != 0xFF {
		t.Errorf("atomic mask = %#x, want 0xFF", p.Instrs[9].Mask)
	}
	if got := NewBuilder().IAlu(1).Len(); got != 1 {
		t.Errorf("Len = %d, want 1", got)
	}
}

func TestBuilderAppendRaw(t *testing.T) {
	wi := WarpInstr{Op: OpNop, Mask: 0xF0F0}
	p := NewBuilder().Append(wi).Build()
	if p.Instrs[0] != wi {
		t.Errorf("Append altered instruction: %+v", p.Instrs[0])
	}
}

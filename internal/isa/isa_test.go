package isa

import (
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		OpNop:          "NOP",
		OpIAlu:         "IALU",
		OpFAlu:         "FALU",
		OpSfu:          "SFU",
		OpLoadGlobal:   "LD.G",
		OpStoreGlobal:  "ST.G",
		OpLoadShared:   "LD.S",
		OpStoreShared:  "ST.S",
		OpAtomicGlobal: "ATOM.G",
		OpBranch:       "BRA",
		OpBarrier:      "BAR",
		OpExit:         "EXIT",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
	if got := Op(200).String(); got != "Op(200)" {
		t.Errorf("unknown op string = %q", got)
	}
}

func TestOpClassPredicates(t *testing.T) {
	type pred struct{ mem, global, writes bool }
	cases := map[Op]pred{
		OpNop:          {false, false, false},
		OpIAlu:         {false, false, true},
		OpFAlu:         {false, false, true},
		OpSfu:          {false, false, true},
		OpLoadGlobal:   {true, true, true},
		OpStoreGlobal:  {true, true, false},
		OpLoadShared:   {true, false, true},
		OpStoreShared:  {true, false, false},
		OpAtomicGlobal: {true, true, true},
		OpBranch:       {false, false, false},
		OpBarrier:      {false, false, false},
		OpExit:         {false, false, false},
	}
	for op, want := range cases {
		if got := op.IsMemory(); got != want.mem {
			t.Errorf("%v.IsMemory() = %v, want %v", op, got, want.mem)
		}
		if got := op.IsGlobal(); got != want.global {
			t.Errorf("%v.IsGlobal() = %v, want %v", op, got, want.global)
		}
		if got := op.WritesRegister(); got != want.writes {
			t.Errorf("%v.WritesRegister() = %v, want %v", op, got, want.writes)
		}
	}
}

func TestGlobalImpliesMemory(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		if op.IsGlobal() && !op.IsMemory() {
			t.Errorf("%v is global but not memory", op)
		}
	}
}

func TestActiveLanes(t *testing.T) {
	cases := []struct {
		mask uint32
		want int
	}{
		{0, 0},
		{1, 1},
		{FullMask, 32},
		{0xAAAAAAAA, 16},
		{0x80000001, 2},
	}
	for _, c := range cases {
		wi := WarpInstr{Mask: c.mask}
		if got := wi.ActiveLanes(); got != c.want {
			t.Errorf("ActiveLanes(%#x) = %d, want %d", c.mask, got, c.want)
		}
	}
}

func TestActiveLanesMatchesPopcount(t *testing.T) {
	f := func(mask uint32) bool {
		wi := WarpInstr{Mask: mask}
		want := 0
		for i := 0; i < 32; i++ {
			if mask&(1<<i) != 0 {
				want++
			}
		}
		return wi.ActiveLanes() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWarpInstrReset: Reset clears every header field, the lane formula
// included, and leaves the lane array to the next non-affine op to write.
func TestWarpInstrReset(t *testing.T) {
	wi := WarpInstr{Op: OpLoadGlobal, Dst: 5, Src: [3]Reg{1, 2, 3}, BankConflict: 2, Mask: FullMask}
	FillLinear(&wi, 4096, 4)
	wi.Addrs[3] = 12345
	wi.Reset()
	if want := (WarpInstr{Addrs: wi.Addrs}); wi != want {
		t.Errorf("Reset left header state behind: %+v", wi)
	}
	if wi.Addrs[3] != 12345 || wi.Addr(3) != 12345 {
		t.Errorf("Reset touched the lanes: lane 3 = %d, want 12345", wi.Addr(3))
	}
}

func TestSliceProgram(t *testing.T) {
	p := NewBuilder().IAlu(1).FAlu(2, 1).Exit().Build()
	want := []Op{OpIAlu, OpFAlu, OpExit}
	// Two warps interleave on the one program: each cursor is its own.
	var c1, c2 Cursor
	var buf WarpInstr
	for i, op := range want {
		for _, c := range []*Cursor{&c1, &c2} {
			if !p.Next(c, &buf) || buf.Op != op {
				t.Fatalf("instr %d = %v, want %v", i, buf.Op, op)
			}
		}
	}
	for _, c := range []*Cursor{&c1, &c2} {
		if p.Next(c, &buf) {
			t.Error("Next returned true after exhaustion")
		}
		if c.Pos != len(want) {
			t.Errorf("cursor at %d after exhaustion, want %d", c.Pos, len(want))
		}
	}
}

// TestSliceProgramRegs: the footprint is the highest register named, as a
// destination or any source, plus one, and at least 1.
func TestSliceProgramRegs(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    *Builder
		want int
	}{
		{"empty", NewBuilder(), 1},
		{"r0 only", NewBuilder().IAlu(0, 0).Branch().Exit(), 1},
		{"r63 destination", NewBuilder().IAlu(1).LoadGlobal(63, 0).Exit(), 64},
		{"r63 third source", NewBuilder().FAlu(2, 1, 0, 63).Exit(), 64},
		{"r5 store source", NewBuilder().IAlu(3).StoreGlobal(5, 0), 6},
	} {
		if got := tc.b.Build().Regs(); got != tc.want {
			t.Errorf("%s: Regs() = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestBuilderIsolation(t *testing.T) {
	b := NewBuilder().IAlu(1)
	p1 := b.Build()
	b.FAlu(2, 1)
	p2 := b.Build()
	if len(p1.Instrs) != 1 {
		t.Errorf("earlier Build mutated: len = %d, want 1", len(p1.Instrs))
	}
	if len(p2.Instrs) != 2 {
		t.Errorf("later Build wrong: len = %d, want 2", len(p2.Instrs))
	}
}

func TestBuilderLinearAddresses(t *testing.T) {
	p := NewBuilder().LoadGlobal(1, 1000).Build()
	wi := p.Instrs[0]
	for lane := 0; lane < WarpSize; lane++ {
		want := uint32(1000 + lane*4)
		if wi.Addr(lane) != want {
			t.Fatalf("lane %d addr = %d, want %d", lane, wi.Addr(lane), want)
		}
	}
}

func TestBuilderStrideAddresses(t *testing.T) {
	p := NewBuilder().LoadGlobalStride(1, 0, 128).Build()
	wi := p.Instrs[0]
	for lane := 0; lane < WarpSize; lane++ {
		if wi.Addr(lane) != uint32(lane*128) {
			t.Fatalf("lane %d addr = %d, want %d", lane, wi.Addr(lane), lane*128)
		}
	}
}

// TestFillLinearIsAFormula: FillLinear writes the formula, not the lanes,
// and a lane's address wraps around the 32-bit space as uint32 arithmetic
// does.
func TestFillLinearIsAFormula(t *testing.T) {
	var wi WarpInstr
	wi.Addrs[2] = 7
	FillLinear(&wi, 0xFFFF_FFF0, 8)
	if !wi.Affine || wi.Base != 0xFFFF_FFF0 || wi.Stride != 8 || wi.Addrs[2] != 7 {
		t.Fatalf("FillLinear wrote %+v", wi)
	}
	for lane, want := range map[int]uint32{0: 0xFFFF_FFF0, 1: 0xFFFF_FFF8, 2: 0, 31: 232} {
		if got := wi.Addr(lane); got != want {
			t.Errorf("lane %d addr = %#x, want %#x", lane, got, want)
		}
	}
}

func TestBuilderSourceRegisters(t *testing.T) {
	p := NewBuilder().FAlu(4, 1, 2, 3).Build()
	wi := p.Instrs[0]
	if wi.Src != [3]Reg{1, 2, 3} {
		t.Errorf("Src = %v, want [1 2 3]", wi.Src)
	}
	// More than 3 sources are truncated, not panicked on.
	p = NewBuilder().FAlu(5, 1, 2, 3, 4).Build()
	if p.Instrs[0].Src != [3]Reg{1, 2, 3} {
		t.Errorf("overflow Src = %v, want [1 2 3]", p.Instrs[0].Src)
	}
}

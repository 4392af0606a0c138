package sm

import (
	"fmt"
	"math/rand"
	"testing"

	"gpusched/internal/isa"
	"gpusched/internal/kernel"
)

// loopProg issues the same instruction forever.
type loopProg struct{ in isa.Instr }

func (p loopProg) Decode(_ *isa.Cursor, in *isa.Instr) bool {
	*in = p.in
	return true
}

func (p loopProg) Next(_ *isa.Cursor, buf *isa.WarpInstr) bool {
	buf.Instr = p.in
	return true
}

func (p loopProg) Regs() int { return p.in.Regs() }

// aluLoop is r1 = f(r2), forever: a warp running it is ready exactly when r2
// is.
var aluLoop = loopProg{isa.Instr{Op: isa.OpFAlu, Dst: 1, Src: [3]isa.Reg{2}, Mask: isa.FullMask}}

// testSched is a scheduler over an idle LDST unit, for the direct tests.
func testSched(p Policy) *scheduler {
	return &scheduler{policy: p, ldst: &ldstUnit{cap: 8, free: []uint32{0}}}
}

// mkWarps builds n warps with distinct seq/CTA identities for direct
// scheduler tests, each running aluLoop.
func mkWarps(n int) []*Warp {
	ws := make([]*Warp, n)
	for i := range ws {
		ws[i] = aluWarp(uint64(i), &CTA{Arrival: uint64(i), BlockKey: uint64(i)}, 0)
	}
	return ws
}

// aluSpec is the kernel whose program is aluLoop.
var aluSpec = &kernel.Spec{Program: aluLoop}

// aluWarp is a warp of cta, made a CTA of aluSpec, with its scoreboard, as
// SM.AddCTA would place it.
func aluWarp(seq uint64, cta *CTA, warp int) *Warp {
	cta.Spec = aluSpec
	return &Warp{seq: seq, cta: cta, at: isa.Cursor{Warp: warp}, readyAt: make([]uint64, aluLoop.Regs())}
}

// block keeps w's aluLoop from issuing before cycle until.
func block(w *Warp, until uint64) { w.setReady(2, until) }

// pickIssue picks at now and, as SM.execute would, retires the winner's
// instruction so the next pick fetches and evaluates a fresh one.
func pickIssue(s *scheduler, now uint64) (*Warp, skipReason) {
	w, reason := s.pick(now)
	if w != nil {
		w.curValid = false
		s.issued(w)
	}
	return w, reason
}

func TestLRRRotation(t *testing.T) {
	s := testSched(PolicyLRR)
	for _, w := range mkWarps(3) {
		s.add(w)
	}
	var picks []uint64
	for i := 0; i < 6; i++ {
		w, _ := pickIssue(s, 0)
		picks = append(picks, w.seq)
	}
	want := []uint64{0, 1, 2, 0, 1, 2}
	for i := range want {
		if picks[i] != want[i] {
			t.Fatalf("LRR picks = %v, want %v", picks, want)
		}
	}
}

func TestLRRSkipsUnready(t *testing.T) {
	s := testSched(PolicyLRR)
	ws := mkWarps(3)
	for _, w := range ws {
		s.add(w)
	}
	block(ws[1], 100)
	seen := map[uint64]int{}
	for i := 0; i < 4; i++ {
		w, _ := pickIssue(s, 0)
		seen[w.seq]++
	}
	if seen[1] != 0 || seen[0] != 2 || seen[2] != 2 {
		t.Fatalf("LRR distribution = %v", seen)
	}
}

func TestGTOGreedyPersistence(t *testing.T) {
	s := testSched(PolicyGTO)
	ws := mkWarps(3)
	for _, w := range ws {
		s.add(w)
	}
	// First pick: oldest (seq 0). It stays greedy while ready.
	for i := 0; i < 3; i++ {
		w, _ := pickIssue(s, 0)
		if w.seq != 0 {
			t.Fatalf("pick %d = warp %d, want greedy warp 0", i, w.seq)
		}
	}
	// Greedy stalls: oldest ready wins and becomes the new greedy warp.
	block(ws[0], 100)
	w, _ := pickIssue(s, 0)
	if w.seq != 1 {
		t.Fatalf("fallback pick = %d, want oldest ready 1", w.seq)
	}
	// By cycle 100 warp 0 is ready again, but warp 1 is the greedy warp now.
	w, _ = pickIssue(s, 100)
	if w.seq != 1 {
		t.Fatalf("greedy did not switch: pick = %d, want 1", w.seq)
	}
}

func TestGTOStallAttributionUsesOldest(t *testing.T) {
	s := testSched(PolicyGTO)
	for _, w := range mkWarps(2) {
		block(w, 100)
		s.add(w)
	}
	w, reason := s.pick(0)
	if w != nil || reason != skipScoreboard {
		t.Fatalf("pick = (%v, %v), want (nil, scoreboard)", w, reason)
	}
}

func TestBAWSInterleavesGangWarps(t *testing.T) {
	// Two CTAs of one gang (same BlockKey), two warps each. BAWS order:
	// (warp index, indexInBlock): A0, B0, A1, B1.
	s := testSched(PolicyBAWS)
	a := &CTA{BlockKey: 5, IndexInBlock: 0}
	bb := &CTA{BlockKey: 5, IndexInBlock: 1}
	warps := []*Warp{aluWarp(0, a, 0), aluWarp(1, a, 1), aluWarp(2, bb, 0), aluWarp(3, bb, 1)}
	for _, w := range warps {
		s.add(w)
	}
	var order []uint64
	for len(s.warps) > 0 {
		w, _ := s.pick(0)
		order = append(order, w.seq)
		s.remove(w) // also drops the greedy warp: pure age order is observed
	}
	want := []uint64{0, 2, 1, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("BAWS order = %v, want %v (gang interleave)", order, want)
		}
	}
}

func TestBAWSOlderBlockFirst(t *testing.T) {
	s := testSched(PolicyBAWS)
	old := aluWarp(9, &CTA{BlockKey: 1, IndexInBlock: 1}, 3)
	young := aluWarp(1, &CTA{BlockKey: 2, IndexInBlock: 0}, 0)
	s.add(young)
	s.add(old)
	w, _ := s.pick(0)
	if w != old {
		t.Fatal("BAWS did not prioritize the older block")
	}
}

func TestSchedulerRemove(t *testing.T) {
	s := testSched(PolicyLRR)
	ws := mkWarps(3)
	for _, w := range ws {
		s.add(w)
	}
	pickIssue(s, 0) // last = ws[0]
	s.remove(ws[0])
	if len(s.warps) != 2 {
		t.Fatalf("len = %d after remove", len(s.warps))
	}
	if s.last != nil {
		t.Fatal("remove did not clear last pointer")
	}
	w, _ := s.pick(0)
	if w == ws[0] {
		t.Fatal("removed warp picked")
	}
	// Removing a warp not present is a no-op.
	s.remove(ws[0])
	if len(s.warps) != 2 {
		t.Fatal("double remove changed list")
	}
}

func TestEmptySchedulerPick(t *testing.T) {
	s := testSched(PolicyGTO)
	if w, reason := s.pick(0); w != nil || reason != skipNone {
		t.Fatalf("empty pick = (%v,%v)", w, reason)
	}
}

func TestPolicyString(t *testing.T) {
	cases := map[Policy]string{
		PolicyLRR:      "lrr",
		PolicyGTO:      "gto",
		PolicyBAWS:     "baws",
		PolicyTwoLevel: "two-level",
		Policy(9):      "policy?",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", p, got, want)
		}
	}
}

// TestPolicyText: every policy's name parses back to it, anything else
// (the retired "twolevel" too) is refused, and a policy without a name has
// no text form.
func TestPolicyText(t *testing.T) {
	for in, want := range map[string]Policy{
		"lrr": PolicyLRR, "gto": PolicyGTO, "baws": PolicyBAWS,
		"two-level": PolicyTwoLevel,
	} {
		var got Policy
		if err := got.UnmarshalText([]byte(in)); err != nil || got != want {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", in, got, err, want)
		}
		if text, err := want.MarshalText(); err != nil || string(text) != in {
			t.Errorf("%v.MarshalText() = %q, %v", want, text, err)
		}
	}
	for _, bad := range []string{"", "nope", "GTO", "twolevel"} {
		var p Policy
		if err := p.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted", bad)
		}
	}
	if _, err := Policy(9).MarshalText(); err == nil {
		t.Error("Policy(9).MarshalText() succeeded")
	}
}

func TestAgeLess(t *testing.T) {
	cases := []struct {
		a, b [3]uint64
		want bool
	}{
		{[3]uint64{1, 0, 0}, [3]uint64{2, 9, 9}, true},
		{[3]uint64{2, 0, 0}, [3]uint64{1, 9, 9}, false},
		{[3]uint64{1, 1, 0}, [3]uint64{1, 2, 0}, true},
		{[3]uint64{1, 1, 3}, [3]uint64{1, 1, 4}, true},
		{[3]uint64{1, 1, 4}, [3]uint64{1, 1, 4}, false},
	}
	for _, c := range cases {
		if got := ageLess(c.a[0], c.a[1], c.a[2], c.b[0], c.b[1], c.b[2]); got != c.want {
			t.Errorf("ageLess(%v,%v) = %v", c.a, c.b, got)
		}
	}
}

func TestWarpSetSlotMoves(t *testing.T) {
	cases := []struct {
		name      string
		got, want warpSet
	}{
		{"insert at 0", warpSet(0b1011).insertAt(0), 0b10110},
		{"insert in the middle", warpSet(0b1011).insertAt(2), 0b10011},
		{"insert past the top", warpSet(0b1011).insertAt(4), 0b1011},
		{"insert drops bit 63", (bit(63) | 1).insertAt(1), 1},
		{"remove at 0", warpSet(0b1011).removeAt(0), 0b101},
		{"remove in the middle", warpSet(0b1011).removeAt(1), 0b101},
		{"remove bit 63", (bit(63) | 1).removeAt(63), 1},
		{"all 64 slots live", (&scheduler{warps: make([]*Warp, 64)}).live(), ^warpSet(0)},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: %#b, want %#b", c.name, c.got, c.want)
		}
	}
}

// TestWarpStallCache follows one warp's entries in its scheduler's stall
// cache and sets through an ALU dependence and a load: the operands-ready
// bit is set when a walk finds the operands ready and cleared when the
// instruction issues, an ALU dependence caches its wake cycle, and a
// pending load parks the warp in loadWait until the load returns.
func TestWarpStallCache(t *testing.T) {
	r := newRig(t, func(c *Config) { c.NumSchedulers = 1 })
	r.sm.AddCTA(perWarpSpec(1, progOf(func(b *isa.Builder, ctaID, w int) {
		b.FAlu(1).FAlu(2, 1).StoreGlobal(1, 0).LoadGlobal(3, 4096).FAlu(4, 3)
	})), 0, 0, 0, 0, 0, r.now)
	s := &r.sm.schedulers[0]
	issued := func() uint64 { return r.sm.counters.InstrIssued }

	r.step() // cycle 0: FAlu(1) issues
	if issued() != 1 || s.opsReady != 0 {
		t.Fatalf("after the first issue: %d issued, opsReady %#b", issued(), s.opsReady)
	}
	r.step() // cycle 1: FAlu(2, 1) waits for r1
	if want := r.sm.cfg.ALULatency; s.stall[0] != want || s.opsReady != 0 || s.loadWait != 0 {
		t.Fatalf("ALU dependence: stall %d (want %d), opsReady %#b, loadWait %#b", s.stall[0], want, s.opsReady, s.loadWait)
	}
	for issued() < 2 {
		r.step()
	}
	if r.now != r.sm.cfg.ALULatency+1 || s.opsReady != 0 {
		t.Fatalf("FAlu(2, 1) issued by cycle %d, opsReady %#b after", r.now-1, s.opsReady)
	}
	// A full queue refuses the store: its operands stay verified while it
	// waits, in the register-less memory set.
	full := r.sm.ldst.qLen
	r.sm.ldst.qLen = r.sm.ldst.cap
	s.cert.until = 0
	if w, reason := r.sm.pickOrReason(s, r.now); w != nil || reason != skipStructural {
		t.Fatalf("store under a full LDST queue: pick = (%v, %d)", w, reason)
	}
	if s.opsReady != 1 || s.memNoReg != 1 || s.memReg != 0 || !s.cert.waitsOnLDST {
		t.Fatalf("refused store: opsReady %#b, memNoReg %#b, memReg %#b, cert %+v", s.opsReady, s.memNoReg, s.memReg, s.cert)
	}
	r.sm.ldst.qLen = full
	s.cert.until = 0
	for issued() < 4 { // the store, then the load
		r.step()
	}
	if s.opsReady|s.memReg|s.memNoReg != 0 {
		t.Fatalf("after the load issued: opsReady %#b, memReg %#b, memNoReg %#b", s.opsReady, s.memReg, s.memNoReg)
	}
	r.step() // FAlu(4, 3) waits on the load
	if s.loadWait != 1 || s.stall[0] != notReady {
		t.Fatalf("load use: loadWait %#b, stall %d", s.loadWait, s.stall[0])
	}
	for s.loadWait != 0 && r.now < 5000 {
		r.step()
	}
	if s.loadWait != 0 || s.stall[0] != 0 {
		t.Fatalf("load return left loadWait %#b, stall %d", s.loadWait, s.stall[0])
	}
	r.runUntilDone(1, 10000)
}

// refPick is the list walk the warp sets replaced, kept as the oracle of
// TestMaskPickMatchesListWalk. It visits the warps in slot order through a
// readiness function that rescans every operand and reads the instruction
// and the CTA instead of the sticky sets, and it returns the certificate a
// failed pick would write instead of writing it, and the winner instead of
// making it the greedy warp. Like the real pick it caches fetches and
// scoreboard wakes.
func refPick(s *scheduler, now uint64) (*Warp, skipReason, stallCert) {
	atBarrier := func(w *Warp) bool { return s.barrier&bit(w.slot) != 0 }
	ready := func(w *Warp) (bool, skipReason) {
		switch {
		case w.finished:
			return false, skipFinished
		case w.cta.state == CTADraining:
			return false, skipDraining
		case atBarrier(w):
			return false, skipBarrier
		case !w.fetch():
			return false, skipFinished
		case !s.operandsReady(w, now):
			return false, skipScoreboard
		}
		wi := &w.cur
		switch {
		case wi.Op == isa.OpSfu && s.sfuFreeAt > now:
			return false, skipStructural
		case wi.Op.IsMemory() && wi.Mask != 0 && !s.ldst.canAccept(wi.Op.WritesRegister()):
			return false, skipStructural
		}
		return true, skipNone
	}
	c := stallCert{until: NeverEvent}
	stalled := func(w *Warp, reason skipReason) {
		switch reason {
		case skipScoreboard:
			c.until = min(c.until, s.stall[w.slot])
		case skipStructural:
			if w.cur.Op == isa.OpSfu {
				c.until = min(c.until, s.sfuFreeAt)
			} else {
				c.waitsOnLDST = true
			}
		}
	}
	if len(s.warps) == 0 {
		return nil, skipNone, stallCert{}
	}
	if s.policy == PolicyLRR {
		start := 0
		for i, w := range s.warps {
			if w == s.last {
				start = i + 1
				break
			}
		}
		n := len(s.warps)
		first := skipNone
		for k := 0; k < n; k++ {
			w := s.warps[(start+k)%n]
			var ok bool
			var reason skipReason
			switch {
			case atBarrier(w):
				reason = skipBarrier
			case s.stall[w.slot] == notReady:
				reason = skipScoreboard
			default:
				ok, reason = ready(w)
			}
			if ok {
				return w, skipNone, stallCert{}
			}
			stalled(w, reason)
			if first == skipNone {
				first = reason
			}
		}
		c.reason = first
		return nil, first, c
	}
	if l := s.last; l != nil && !atBarrier(l) && s.stall[l.slot] <= now {
		if ok, _ := ready(l); ok {
			return l, skipNone, stallCert{}
		}
	}
	for _, w := range s.warps {
		if atBarrier(w) {
			continue
		}
		if s.stall[w.slot] > now {
			c.until = min(c.until, s.stall[w.slot])
			continue
		}
		ok, reason := ready(w)
		if ok {
			return w, skipNone, stallCert{}
		}
		stalled(w, reason)
	}
	// The overall-oldest warp's stall is the cycle's.
	w := s.warps[0]
	switch {
	case atBarrier(w):
		c.reason = skipBarrier
	case s.stall[w.slot] == notReady:
		c.reason = skipScoreboard
	default:
		_, c.reason = ready(w)
	}
	return nil, c.reason, c
}

// comparePicks runs the mask pick and refPick on every scheduler of r in
// the present state, in an order drawn from rng, and requires the same
// winner, reason and certificate. The picks' only lasting effects are the
// caches the next real pick fills anyway; the certificate, greedy warp and
// evaluation count are restored, so a checked run is the run.
func comparePicks(r *rig, rng *rand.Rand) {
	r.t.Helper()
	for i := range r.sm.schedulers {
		s := &r.sm.schedulers[i]
		if len(s.warps) == 0 {
			continue
		}
		saved, last, evals := s.cert, s.last, s.evals
		var w, rw *Warp
		var reason, rreason skipReason
		var rc stallCert
		mask := func() {
			s.cert, s.last = stallCert{}, last
			w, reason = s.pick(r.now)
		}
		ref := func() {
			s.last = last
			rw, rreason, rc = refPick(s, r.now)
		}
		if rng.Intn(2) == 0 {
			mask()
			ref()
		} else {
			ref()
			mask()
		}
		got := s.cert
		if w != rw || reason != rreason {
			r.t.Fatalf("cycle %d scheduler %d: mask pick (%s, %d), list walk (%s, %d)", r.now, i, warpName(w), reason, warpName(rw), rreason)
		}
		if w == nil && (got.until != rc.until || got.reason != rc.reason || got.waitsOnLDST != rc.waitsOnLDST) {
			r.t.Fatalf("cycle %d scheduler %d: mask pick certifies %+v, list walk %+v", r.now, i, got, rc)
		}
		s.cert, s.last, s.evals = saved, last, evals
	}
}

func warpName(w *Warp) string {
	if w == nil {
		return "none"
	}
	return fmt.Sprintf("warp seq %d", w.seq)
}

// randomSpec builds a kernel of random instruction streams: ALU and SFU
// chains, coalesced and divergent global loads, shared accesses with bank
// conflicts, stores and fully predicated-off loads, cut into the same
// number of barrier phases on every warp of a CTA.
func randomSpec(rng *rand.Rand, seed int64) *kernel.Spec {
	warps := 1 + rng.Intn(6)
	phases := rng.Intn(3)
	reg := func(r *rand.Rand) isa.Reg { return isa.Reg(1 + r.Intn(6)) }
	return perWarpSpec(warps, func(ctaID, w int) isa.Program {
		r := rand.New(rand.NewSource(seed*7919 + int64(ctaID)*64 + int64(w)))
		b := isa.NewBuilder()
		for p := 0; p <= phases; p++ {
			for k := r.Intn(8); k > 0; k-- {
				switch r.Intn(9) {
				case 0, 1:
					b.FAlu(reg(r), reg(r), reg(r))
				case 2:
					b.Sfu(reg(r), reg(r))
				case 3:
					b.LoadGlobal(reg(r), uint32(r.Intn(16))*128)
				case 4:
					b.LoadGlobalStride(reg(r), uint32(r.Intn(4))<<16, 256)
				case 5:
					dst := reg(r)
					r.Intn(8) // a scratchpad offset shared ops no longer take; drawn so the seeded programs stay the same
					b.LoadShared(dst, uint8(r.Intn(4)))
				case 6:
					b.StoreGlobal(reg(r), uint32(r.Intn(16))*128)
				case 7:
					b.StoreShared(reg(r), uint8(r.Intn(3)))
				default:
					b.Append(isa.WarpInstr{Instr: isa.Instr{Op: isa.OpLoadGlobal, Dst: reg(r)}})
				}
			}
			if p < phases {
				b.Barrier()
			}
		}
		return b.Exit().Build()
	})
}

// TestMaskPickMatchesListWalk drives seeded random runs of one SM — small
// LDST queues and pending tables, SFU chains, barriers, CTAs arriving and
// retiring mid-run, drains — and compares the mask pick with refPick on every
// scheduler at every cycle.
func TestMaskPickMatchesListWalk(t *testing.T) {
	policies := []Policy{PolicyGTO, PolicyBAWS, PolicyLRR}
	for seed := int64(1); seed <= 30; seed++ {
		for _, policy := range policies {
			seed, policy := seed, policy
			t.Run(fmt.Sprintf("%s/seed%d", policy, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				r := newRig(t, func(c *Config) {
					c.NumSchedulers = 1 + rng.Intn(2)
					c.LDSTQueueCap = []int{1, 2, 8}[rng.Intn(3)]
					c.MaxPendingLoads = []int{1, 2, 4, 64}[rng.Intn(4)]
					c.WarpPolicy = policy
				})
				evicted := 0
				r.sm.SetDrainHandler(func(int, *CTA) { evicted++ })
				specs := []*kernel.Spec{randomSpec(rng, seed), randomSpec(rng, seed+1000)}
				const ctas = 10
				placed, blockKey := 0, uint64(0)
				for placed < ctas || len(r.done)+evicted < placed {
					if r.now > 50_000 {
						t.Fatalf("%d of %d CTAs done by cycle %d", len(r.done)+evicted, placed, r.now)
					}
					if k := placed % 2; placed < ctas && rng.Intn(8) == 0 && r.sm.CanAccept(specs[k]) {
						// Every other CTA joins its predecessor's gang.
						if k == 0 {
							blockKey = r.now
						}
						r.sm.AddCTA(specs[k], k, placed, uint64(k+1)<<33, blockKey, k, r.now)
						placed++
					}
					if resident := r.sm.CTAs(); len(resident) > 1 && rng.Intn(300) == 0 {
						r.sm.DrainCTA(resident[rng.Intn(len(resident))])
					}
					comparePicks(r, rng)
					r.step()
				}
			})
		}
	}
}

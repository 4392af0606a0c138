package sm

import (
	"testing"

	"gpusched/internal/isa"
)

// mkWarps builds n warps with distinct seq/CTA identities for direct
// scheduler tests.
func mkWarps(n int) []*Warp {
	ws := make([]*Warp, n)
	for i := range ws {
		ws[i] = &Warp{
			seq: uint64(i),
			cta: &CTA{Arrival: uint64(i), BlockKey: uint64(i)},
		}
	}
	return ws
}

func allReady(*Warp) (bool, skipReason)  { return true, skipNone }
func noneReady(*Warp) (bool, skipReason) { return false, skipScoreboard }

func TestLRRRotation(t *testing.T) {
	s := &scheduler{policy: PolicyLRR}
	ws := mkWarps(3)
	for _, w := range ws {
		s.add(w)
	}
	var picks []uint64
	for i := 0; i < 6; i++ {
		w, _ := s.pick(0, allReady)
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
	s := &scheduler{policy: PolicyLRR}
	ws := mkWarps(3)
	for _, w := range ws {
		s.add(w)
	}
	ready := func(w *Warp) (bool, skipReason) {
		if w.seq == 1 {
			return false, skipScoreboard
		}
		return true, skipNone
	}
	seen := map[uint64]int{}
	for i := 0; i < 4; i++ {
		w, _ := s.pick(0, ready)
		seen[w.seq]++
	}
	if seen[1] != 0 || seen[0] != 2 || seen[2] != 2 {
		t.Fatalf("LRR distribution = %v", seen)
	}
}

func TestGTOGreedyPersistence(t *testing.T) {
	s := &scheduler{policy: PolicyGTO}
	ws := mkWarps(3)
	for _, w := range ws {
		s.add(w)
	}
	// First pick: oldest (seq 0). It stays greedy while ready.
	for i := 0; i < 3; i++ {
		w, _ := s.pick(0, allReady)
		if w.seq != 0 {
			t.Fatalf("pick %d = warp %d, want greedy warp 0", i, w.seq)
		}
	}
	// Greedy stalls: oldest ready wins and becomes the new greedy warp.
	ready := func(w *Warp) (bool, skipReason) {
		if w.seq == 0 {
			return false, skipScoreboard
		}
		return true, skipNone
	}
	w, _ := s.pick(0, ready)
	if w.seq != 1 {
		t.Fatalf("fallback pick = %d, want oldest ready 1", w.seq)
	}
	w, _ = s.pick(0, allReady)
	if w.seq != 1 {
		t.Fatalf("greedy did not switch: pick = %d, want 1", w.seq)
	}
}

func TestGTOStallAttributionUsesOldest(t *testing.T) {
	s := &scheduler{policy: PolicyGTO}
	for _, w := range mkWarps(2) {
		s.add(w)
	}
	w, reason := s.pick(0, noneReady)
	if w != nil || reason != skipScoreboard {
		t.Fatalf("pick = (%v, %v), want (nil, scoreboard)", w, reason)
	}
}

func TestBAWSInterleavesGangWarps(t *testing.T) {
	// Two CTAs of one gang (same BlockKey), two warps each. BAWS order:
	// (warpInCTA, indexInBlock): A0, B0, A1, B1.
	s := &scheduler{policy: PolicyBAWS}
	a := &CTA{BlockKey: 5, IndexInBlock: 0}
	bb := &CTA{BlockKey: 5, IndexInBlock: 1}
	warps := []*Warp{
		{seq: 0, cta: a, warpInCTA: 0},
		{seq: 1, cta: a, warpInCTA: 1},
		{seq: 2, cta: bb, warpInCTA: 0},
		{seq: 3, cta: bb, warpInCTA: 1},
	}
	for _, w := range warps {
		s.add(w)
	}
	var order []uint64
	remaining := map[uint64]bool{0: true, 1: true, 2: true, 3: true}
	ready := func(w *Warp) (bool, skipReason) {
		if remaining[w.seq] {
			return true, skipNone
		}
		return false, skipFinished
	}
	for len(remaining) > 0 {
		w, _ := s.pick(0, ready)
		order = append(order, w.seq)
		delete(remaining, w.seq)
		s.last = nil // disable greediness to observe pure age order
	}
	want := []uint64{0, 2, 1, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("BAWS order = %v, want %v (gang interleave)", order, want)
		}
	}
}

func TestBAWSOlderBlockFirst(t *testing.T) {
	s := &scheduler{policy: PolicyBAWS}
	old := &Warp{seq: 9, cta: &CTA{BlockKey: 1, IndexInBlock: 1}, warpInCTA: 3}
	young := &Warp{seq: 1, cta: &CTA{BlockKey: 2, IndexInBlock: 0}, warpInCTA: 0}
	s.add(young)
	s.add(old)
	w, _ := s.pick(0, allReady)
	if w != old {
		t.Fatal("BAWS did not prioritize the older block")
	}
}

func TestSchedulerRemove(t *testing.T) {
	s := &scheduler{policy: PolicyLRR}
	ws := mkWarps(3)
	for _, w := range ws {
		s.add(w)
	}
	s.pick(0, allReady) // last = ws[0]
	s.remove(ws[0])
	if len(s.warps) != 2 {
		t.Fatalf("len = %d after remove", len(s.warps))
	}
	if s.last != nil {
		t.Fatal("remove did not clear last pointer")
	}
	w, _ := s.pick(0, allReady)
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
	s := &scheduler{policy: PolicyGTO}
	if w, reason := s.pick(0, allReady); w != nil || reason != skipNone {
		t.Fatalf("empty pick = (%v,%v)", w, reason)
	}
}

func TestPolicyString(t *testing.T) {
	cases := map[Policy]string{
		PolicyLRR:  "lrr",
		PolicyGTO:  "gto",
		PolicyBAWS: "baws",
		Policy(9):  "policy?",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", p, got, want)
		}
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

func TestWarpStallCache(t *testing.T) {
	w := &Warp{cta: &CTA{}, sched: &scheduler{}}
	w.cur = isa.WarpInstr{Op: isa.OpFAlu, Dst: 2, Src: [3]isa.Reg{1}, Mask: isa.FullMask}
	w.curValid = true
	w.readyAt[1] = 100
	if w.operandsReady(50) {
		t.Fatal("pending operand reported ready")
	}
	if w.stallUntil != 100 {
		t.Fatalf("stallUntil = %d, want 100", w.stallUntil)
	}
	if w.operandsReady(99) {
		t.Fatal("fast path let a stalled warp through")
	}
	if !w.operandsReady(100) {
		t.Fatal("warp not ready at readyAt")
	}
	// Memory-pending operand: cleared by clearStall.
	w.readyAt[1] = notReady
	w.stallUntil = 0
	if w.operandsReady(200) {
		t.Fatal("load-pending operand ready")
	}
	w.readyAt[1] = 150
	w.clearStall()
	if !w.operandsReady(200) {
		t.Fatal("clearStall did not unblock")
	}
}

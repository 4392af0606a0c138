package gpu

import "testing"

// xorshift32 keeps the schedules deterministic across runs and Go versions.
func xs(s uint32) uint32 {
	s ^= s << 13
	s ^= s >> 17
	s ^= s << 5
	return s
}

// TestActivitySetNeverDoubleTicksOrSkips drives an activitySet against a
// naive reference model with items entering and leaving the set mid-run:
// every cycle, each item that is runnable must be visited exactly once, in
// strictly ascending index, and no parked item may be visited at all.
func TestActivitySetNeverDoubleTicksOrSkips(t *testing.T) {
	const n = 13
	const cycles = 400
	a := newActivitySet(n)
	// Reference model: parked[i] says item i is asleep; wake[i] is its
	// pending wake cycle (meaningful only while parked).
	parked := make([]bool, n)
	wake := make([]uint64, n)
	seed := uint32(0x1234)
	visited := make([]int, n)
	for now := uint64(0); now < cycles; now++ {
		// External wakes: occasionally lower a sleeper's bound, sometimes to
		// a cycle that has already passed.
		seed = xs(seed)
		if seed%5 == 0 {
			i := int(seed>>8) % n
			at := now + uint64(seed>>16)%4 // may be <= now: runnable immediately
			if parked[i] && at < wake[i] {
				wake[i] = at
				a.wake(i, at)
			}
		}
		for i := range visited {
			visited[i] = 0
		}
		runnable := make([]bool, n)
		anyRunnable := false
		for i := 0; i < n; i++ {
			runnable[i] = !parked[i] || wake[i] <= now
			anyRunnable = anyRunnable || runnable[i]
		}
		if got := a.idle(now); got == anyRunnable {
			t.Fatalf("cycle=%d: idle() = %v with runnable items = %v", now, got, anyRunnable)
		}
		last := -1
		a.tick(now, func(i int) uint64 {
			visited[i]++
			// Index order is what makes the SMs' direct sends and
			// retirements independent of park/wake history.
			if i <= last {
				t.Fatalf("cycle=%d: item %d visited after item %d", now, i, last)
			}
			last = i
			// Deterministic per-(item, cycle) next bound: mostly stay
			// active, sometimes nap, occasionally sleep indefinitely.
			h := xs(uint32(i+1)*2654435761 + uint32(now+1)*40503)
			switch h % 8 {
			case 0, 1, 2, 3:
				parked[i] = false
				return now + 1
			case 4, 5:
				parked[i], wake[i] = true, now+2+uint64(h>>8)%7
				return wake[i]
			case 6:
				parked[i], wake[i] = true, now+20
				return now + 20
			default:
				parked[i], wake[i] = true, neverWake
				return neverWake
			}
		})
		for i := 0; i < n; i++ {
			if runnable[i] && visited[i] != 1 {
				t.Fatalf("cycle=%d: runnable item %d visited %d times", now, i, visited[i])
			}
			if !runnable[i] && visited[i] != 0 {
				t.Fatalf("cycle=%d: parked item %d (wake %d) visited %d times", now, i, wake[i], visited[i])
			}
		}
		// The horizon must never overshoot the earliest true pending wake,
		// and the sleeper count must match the model exactly.
		min := uint64(neverWake)
		sleeping := 0
		for i := 0; i < n; i++ {
			if parked[i] {
				sleeping++
				if wake[i] < min {
					min = wake[i]
				}
			}
		}
		if h := a.horizon(); h > min {
			t.Fatalf("cycle=%d: horizon %d > earliest wake %d", now, h, min)
		}
		if got := a.sleeping(); got != sleeping {
			t.Fatalf("cycle=%d: sleeping() = %d, want %d", now, got, sleeping)
		}
	}
}

// TestActivitySetWakeSemantics pins the wake edge cases: waking an active
// item is a no-op, waking to a later cycle never postpones, and a wake to
// cycle 0 is clamped (items start active; a zero wake would alias the
// active sentinel).
func TestActivitySetWakeSemantics(t *testing.T) {
	a := newActivitySet(4)
	a.tick(0, func(j int) uint64 { // park item 1 until cycle 100
		if j == 1 {
			return 100
		}
		return 1
	})
	if got := a.horizon(); got != 100 {
		t.Fatalf("horizon = %d, want 100", got)
	}
	a.wake(1, 200) // later than current bound: must not postpone
	if got := a.horizon(); got != 100 {
		t.Fatalf("after late wake: horizon = %d, want 100", got)
	}
	a.wake(1, 7)
	if got := a.horizon(); got != 7 {
		t.Fatalf("after wake(7): horizon = %d, want 7", got)
	}
	a.wake(0, 3) // item 0 is active: no-op
	if got := a.horizon(); got != 7 {
		t.Fatalf("after waking active item: horizon = %d, want 7", got)
	}
	a.wake(1, 0) // clamps to 1
	if got := a.horizon(); got != 1 {
		t.Fatalf("after wake(0): horizon = %d, want 1", got)
	}
	// The re-sleep-to-same-cycle race: item parks to w, is woken, runs, and
	// parks to the same w again. It must run once at w, not twice.
	b := newActivitySet(1)
	b.tick(0, func(int) uint64 { return 10 }) // sleep until 10
	b.wake(0, 5)
	visits := 0
	b.tick(5, func(int) uint64 { visits++; return 10 }) // re-sleep to 10
	b.tick(10, func(int) uint64 { visits++; return neverWake })
	b.tick(11, func(int) uint64 { visits++; return neverWake })
	if visits != 2 {
		t.Fatalf("re-sleep to the same cycle: %d visits, want 2", visits)
	}
}

// TestActivitySetIdle checks the quiet-window precondition: the set is idle
// exactly when nothing is active and no sleeper's wake cycle has arrived.
func TestActivitySetIdle(t *testing.T) {
	a := newActivitySet(6)
	if a.idle(0) {
		t.Fatal("idle(0) with every item active")
	}
	// Park everything: 0,1 until cycle 5; 2,3 until cycle 9; 4,5 forever.
	a.tick(0, func(i int) uint64 {
		switch {
		case i < 2:
			return 5
		case i < 4:
			return 9
		default:
			return neverWake
		}
	})
	for _, tc := range []struct {
		now  uint64
		want bool
	}{{1, true}, {4, true}, {5, false}, {9, false}} {
		if got := a.idle(tc.now); got != tc.want {
			t.Fatalf("idle(%d) = %v, want %v", tc.now, got, tc.want)
		}
	}
}

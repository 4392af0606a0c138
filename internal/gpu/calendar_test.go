package gpu

import "testing"

// xorshift32 keeps the schedules deterministic across runs and Go versions.
func xs(s uint32) uint32 {
	s ^= s << 13
	s ^= s >> 17
	s ^= s << 5
	return s
}

// newCalendar is a calendar of n SMs and one partition, every SM due at
// cycle 0.
func newCalendar(n int) *calendar {
	c := new(calendar)
	c.reset(n, 1)
	return c
}

// TestCalendarNeverDoubleTicksOrSkips drives the calendar's SM bounds
// against a naive model with items parking and waking mid-run: every cycle,
// each item whose bound has come must be visited exactly once, in strictly
// ascending index, no other item may be visited, and the maintained minimum
// must equal the earliest bound.
func TestCalendarNeverDoubleTicksOrSkips(t *testing.T) {
	const n = 13
	const cycles = 400
	c := newCalendar(n)
	// Reference model: bound[i] is item i's wake cycle; due when <= now.
	bound := make([]uint64, n)
	seed := uint32(0x1234)
	visited := make([]int, n)
	for now := uint64(0); now < cycles; now++ {
		// External wakes: occasionally lower an item's bound, sometimes to a
		// cycle that has already passed.
		seed = xs(seed)
		if seed%5 == 0 {
			i := int(seed>>8) % n
			at := now + uint64(seed>>16)%4 // may be <= now: due immediately
			bound[i] = min(bound[i], at)
			c.WakeCore(i, at)
		}
		if got, want := min(c.coreMin, c.partMin), min(c.partMin, minOf(bound)); got != want {
			t.Fatalf("cycle=%d: earliest bound %d, want %d", now, got, want)
		}
		clear(visited)
		runnable := make([]bool, n)
		for i := range bound {
			runnable[i] = bound[i] <= now
		}
		last := -1
		visitDue(c.core, &c.coreMin, now, func(i int) uint64 {
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
				bound[i] = now + 1
			case 4, 5:
				bound[i] = now + 2 + uint64(h>>8)%7
			case 6:
				bound[i] = now + 20
			default:
				bound[i] = neverWake
			}
			return bound[i]
		})
		for i := range bound {
			if runnable[i] && visited[i] != 1 {
				t.Fatalf("cycle=%d: due item %d visited %d times", now, i, visited[i])
			}
			if !runnable[i] && visited[i] != 0 {
				t.Fatalf("cycle=%d: parked item %d (bound %d) visited %d times", now, i, bound[i], visited[i])
			}
		}
		if got, want := c.coreMin, minOf(bound); got != want {
			t.Fatalf("cycle=%d: coreMin = %d, want the earliest bound %d", now, got, want)
		}
	}
}

func minOf(bounds []uint64) uint64 {
	m := uint64(neverWake)
	for _, b := range bounds {
		m = min(m, b)
	}
	return m
}

// TestCalendarWakeSemantics pins the wake edge cases: waking to a later
// cycle never postpones, waking a due item keeps it due, a partition wake
// moves only the partition minimum, and an item woken early that parks to
// the same cycle again runs once at each.
func TestCalendarWakeSemantics(t *testing.T) {
	c := newCalendar(4)
	visitDue(c.core, &c.coreMin, 0, func(j int) uint64 { // park item 1 until cycle 100
		if j == 1 {
			return 100
		}
		return neverWake
	})
	if got := min(c.coreMin, c.partMin); got != 100 {
		t.Fatalf("earliest bound %d, want 100", got)
	}
	c.WakeCore(1, 200) // later than current bound: must not postpone
	if got := min(c.coreMin, c.partMin); got != 100 {
		t.Fatalf("after late wake: earliest bound %d, want 100", got)
	}
	c.WakeCore(1, 7)
	if got := min(c.coreMin, c.partMin); got != 7 {
		t.Fatalf("after WakeCore(7): earliest bound %d, want 7", got)
	}
	c.WakePartition(0, 3)
	if min(c.coreMin, c.partMin) != 3 || c.coreMin != 7 {
		t.Fatalf("after WakePartition(3): earliest bound %d, coreMin = %d, want 3 and 7", min(c.coreMin, c.partMin), c.coreMin)
	}
	if visitDue(c.part, &c.partMin, 2, func(int) uint64 { t.Fatal("partition visited before its bound"); return 0 }) {
		t.Fatal("a partition was due before its bound")
	}
	// The re-sleep-to-same-cycle race: item parks to w, is woken, runs, and
	// parks to the same w again. It must run once at w, not twice.
	b := newCalendar(1)
	visitDue(b.core, &b.coreMin, 0, func(int) uint64 { return 10 }) // sleep until 10
	b.WakeCore(0, 5)
	visits := 0
	for now := uint64(1); now < 12; now++ {
		visitDue(b.core, &b.coreMin, now, func(int) uint64 {
			visits++
			if now == 5 {
				return 10 // re-sleep to 10
			}
			return neverWake
		})
	}
	if visits != 2 {
		t.Fatalf("re-sleep to the same cycle: %d visits, want 2", visits)
	}
}

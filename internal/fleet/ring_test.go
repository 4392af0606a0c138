package fleet

import (
	"fmt"
	"sync"
	"testing"
)

func testShards(names ...string) []*Shard {
	shards := make([]*Shard, len(names))
	for i, n := range names {
		shards[i] = &Shard{Name: n, URL: "http://" + n + ".invalid"}
	}
	return shards
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("workload=vadd|sched=lcs|key=%d", i)
	}
	return keys
}

// TestRingDistribution: rendezvous hashing spreads keys roughly evenly —
// with 4 shards and 40k keys, every shard should own a healthy fraction
// (the sha256 scores make this overwhelmingly likely; the 15% floor is
// far below the 25% expectation but far above a broken hash).
func TestRingDistribution(t *testing.T) {
	ring := NewRing(testShards("s0", "s1", "s2", "s3"))
	keys := testKeys(40_000)
	counts := map[string]int{}
	for _, k := range keys {
		counts[ring.Owner(k).Name] = counts[ring.Owner(k).Name] + 1
	}
	for _, s := range ring.Shards() {
		frac := float64(counts[s.Name]) / float64(len(keys))
		if frac < 0.15 {
			t.Errorf("shard %s owns %.1f%% of keys, want >= 15%%", s.Name, 100*frac)
		}
	}
}

// TestRingStabilityOnAdd: growing a 4-shard ring to 5 moves ~1/5 of the
// key space, and every key that moves, moves TO the new shard — existing
// keys never reshuffle among the survivors.
func TestRingStabilityOnAdd(t *testing.T) {
	before := NewRing(testShards("s0", "s1", "s2", "s3"))
	after := NewRing(testShards("s0", "s1", "s2", "s3", "s4"))
	keys := testKeys(40_000)
	moved := 0
	for _, k := range keys {
		oldOwner := before.Owner(k).Name
		newOwner := after.Owner(k).Name
		if oldOwner == newOwner {
			continue
		}
		moved++
		if newOwner != "s4" {
			t.Fatalf("key %q moved %s -> %s, but only the new shard may gain keys", k, oldOwner, newOwner)
		}
	}
	frac := float64(moved) / float64(len(keys))
	if frac < 0.10 || frac > 0.30 {
		t.Errorf("adding a 5th shard moved %.1f%% of keys, want ~20%% (10%%-30%%)", 100*frac)
	}
}

// TestRingFailoverAndRecovery: marking a key's owner down hands the key
// to another healthy shard without disturbing keys the downed shard never
// owned; recovery restores the original placement exactly.
func TestRingFailoverAndRecovery(t *testing.T) {
	ring := NewRing(testShards("s0", "s1", "s2"))
	keys := testKeys(300)
	orig := map[string]string{}
	for _, k := range keys {
		orig[k] = ring.Owner(k).Name
	}
	victim := ring.Owner(keys[0])
	markDown(t, victim)
	if victim.Healthy() {
		t.Fatal("shard still healthy after mark-down")
	}
	for _, k := range keys {
		owner := ring.Owner(k)
		if owner.Name == victim.Name {
			t.Fatalf("key %q still owned by downed shard", k)
		}
		if orig[k] != victim.Name && owner.Name != orig[k] {
			t.Fatalf("key %q moved %s -> %s although its owner never went down", k, orig[k], owner.Name)
		}
	}
	if !victim.noteSuccess() {
		t.Fatal("noteSuccess should report the down->up transition")
	}
	for _, k := range keys {
		if got := ring.Owner(k).Name; got != orig[k] {
			t.Fatalf("after recovery key %q owned by %s, want %s", k, got, orig[k])
		}
	}
}

// TestCandidatesOrder: candidates list every shard, healthy ones first,
// and the first candidate is the owner.
func TestCandidatesOrder(t *testing.T) {
	ring := NewRing(testShards("s0", "s1", "s2"))
	key := "some-cache-key"
	cands := ring.Candidates(key)
	if len(cands) != 3 {
		t.Fatalf("got %d candidates, want 3", len(cands))
	}
	if cands[0] != ring.Owner(key) {
		t.Error("first candidate is not the owner")
	}
	markDown(t, cands[0])
	demoted := ring.Candidates(key)
	if demoted[len(demoted)-1] != cands[0] {
		t.Error("downed shard should sort last")
	}
	if !demoted[0].Healthy() {
		t.Error("first candidate should be healthy when any shard is up")
	}
	if ring.HealthyCount() != 2 {
		t.Errorf("HealthyCount = %d, want 2", ring.HealthyCount())
	}
}

// markDown fails s until its streak marks it down, checking that exactly
// the failAfter-th consecutive failure does.
func markDown(t *testing.T, s *Shard) {
	t.Helper()
	for i := 1; i < failAfter; i++ {
		if s.noteFailure("early") {
			t.Fatalf("went down after %d of %d failures", i, failAfter)
		}
	}
	if !s.noteFailure("down") {
		t.Fatalf("still up after %d consecutive failures", failAfter)
	}
}

// TestShardFailureStreak: mark-down requires failAfter consecutive
// failures, and a single success resets the streak.
func TestShardFailureStreak(t *testing.T) {
	s := &Shard{Name: "s0", URL: "http://s0.invalid"}
	if s.noteFailure("one") {
		t.Error("went down after one failure")
	}
	s.noteSuccess()
	markDown(t, s)
	if s.Healthy() {
		t.Error("shard healthy after mark-down")
	}
	if s.noteFailure("again") {
		t.Error("already-down shard reported a second mark-down transition")
	}
	if s.LastError() != "again" {
		t.Errorf("LastError = %q, want %q", s.LastError(), "again")
	}
}

// TestShardHealthConcurrent is the lock contract for a Shard's health state
// (down, fails, lastErr): each method that touches it runs in a goroutine
// of its own, so under -race dropping any one of their mu sections fails.
// One method per goroutine makes that independent of timing: a goroutine
// whose method lost its lock never synchronizes with the others, so its
// accesses are unordered with theirs however the four are scheduled.
func TestShardHealthConcurrent(t *testing.T) {
	s := &Shard{Name: "s0", URL: "http://s0.invalid"}
	var wg sync.WaitGroup
	for _, call := range []func(){
		func() { s.noteFailure("probe failed") },
		func() { s.noteSuccess() },
		func() { s.Healthy() },
		func() { s.LastError() },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				call()
			}
		}()
	}
	wg.Wait()
}

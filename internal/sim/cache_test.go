package sim_test

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"gpusched/internal/sim"
)

// distinctTiny builds n requests with distinct cache keys but identical
// (cheap) simulated work: the MaxCycles override varies the key without
// changing what runs.
func distinctTiny(n int) []sim.Request {
	reqs := make([]sim.Request, n)
	for i := range reqs {
		r := tinyRequest("vadd", sim.Baseline())
		r.MaxCycles = 20_000_000 + uint64(i)
		reqs[i] = r
	}
	return reqs
}

// TestDiskCacheEntryBudget: with CacheEntries = 2, a third distinct store
// evicts the oldest entry, the directory stays at the budget, and the
// eviction is counted in Stats.DiskEvictions.
func TestDiskCacheEntryBudget(t *testing.T) {
	dir := t.TempDir()
	svc := sim.NewService(sim.Options{CacheDir: dir, CacheEntries: 2})
	ctx := context.Background()
	for i, req := range distinctTiny(3) {
		if _, err := svc.Run(ctx, req); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		// Space the stores out so mtime ordering is unambiguous even on
		// coarse-resolution filesystems.
		time.Sleep(20 * time.Millisecond)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	jsonFiles := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".json" {
			jsonFiles++
		}
	}
	if jsonFiles != 2 {
		t.Errorf("cache holds %d entries, want 2 (budget)", jsonFiles)
	}
	if st := svc.Stats(); st.DiskEvictions != 1 {
		t.Errorf("DiskEvictions = %d, want 1", st.DiskEvictions)
	}

	// The newest two entries survive: the last two requests hit disk on a
	// fresh service, the first resimulates.
	fresh := sim.NewService(sim.Options{CacheDir: dir})
	reqs := distinctTiny(3)
	for _, req := range reqs[1:] {
		if _, err := fresh.Run(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if st := fresh.Stats(); st.DiskHits != 2 || st.Simulated != 0 {
		t.Errorf("warm stats after eviction = %+v, want 2 disk hits", st)
	}
	if _, err := fresh.Run(ctx, reqs[0]); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.Simulated != 1 {
		t.Errorf("evicted entry should resimulate; stats = %+v", st)
	}
}

// TestDiskCacheByteBudget: a byte budget far below two entries keeps the
// newest store and evicts the rest.
func TestDiskCacheByteBudget(t *testing.T) {
	dir := t.TempDir()
	svc := sim.NewService(sim.Options{CacheDir: dir, CacheBytes: 1})
	ctx := context.Background()
	for _, req := range distinctTiny(2) {
		if _, err := svc.Run(ctx, req); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	ents, _ := os.ReadDir(dir)
	n := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	// The just-written entry is exempt from its own store's eviction, so
	// exactly one (the newest) survives each store.
	if n != 1 {
		t.Errorf("cache holds %d entries under a 1-byte budget, want 1", n)
	}
	if st := svc.Stats(); st.DiskEvictions != 1 {
		t.Errorf("DiskEvictions = %d, want 1", st.DiskEvictions)
	}
}

// TestCacheEntryBytesAndDecode: the content-addressed accessor serves the
// raw entry, DecodeCacheEntry verifies it against the right key and
// rejects the wrong one — the peer-cache protocol's integrity check.
func TestCacheEntryBytesAndDecode(t *testing.T) {
	dir := t.TempDir()
	svc := sim.NewService(sim.Options{CacheDir: dir})
	req := tinyRequest("vadd", sim.LCS())
	out, err := svc.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	key := req.Key()
	data, ok := svc.CacheEntryBytes(sim.CacheAddr(key))
	if !ok {
		t.Fatalf("no entry for %s", sim.CacheAddr(key))
	}
	got, ok := sim.DecodeCacheEntry(data, key)
	if !ok {
		t.Fatal("entry failed verification against its own key")
	}
	if got.Result.Cycles != out.Result.Cycles {
		t.Errorf("decoded cycles %d != simulated %d", got.Result.Cycles, out.Result.Cycles)
	}
	if _, ok := sim.DecodeCacheEntry(data, key+"|tampered"); ok {
		t.Error("entry verified against the wrong key")
	}
	// Malformed addresses never resolve (and never touch the filesystem).
	for _, bad := range []string{"", "..", "../../etc/passwd", "ZZ", sim.CacheAddr(key)[:40]} {
		if _, ok := svc.CacheEntryBytes(bad); ok {
			t.Errorf("malformed address %q resolved", bad)
		}
	}
}

// TestPeerFetchHook: a service with a PeerFetch hook satisfies a local
// miss from the peer, counts it, and migrates the entry into its own
// disk cache so the next cold service hits locally.
func TestPeerFetchHook(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	ctx := context.Background()
	req := tinyRequest("vadd", sim.LCS())
	key := req.Key()

	svcA := sim.NewService(sim.Options{CacheDir: dirA})
	want, err := svcA.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	fetches := 0
	svcB := sim.NewService(sim.Options{
		CacheDir: dirB,
		PeerFetch: func(ctx context.Context, k string) (sim.Outcome, bool) {
			fetches++
			if k != key {
				t.Errorf("peer fetch for key %q, want %q", k, key)
			}
			data, ok := svcA.CacheEntryBytes(sim.CacheAddr(k))
			if !ok {
				return sim.Outcome{}, false
			}
			return sim.DecodeCacheEntry(data, k)
		},
	})
	got, err := svcB.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Cycles != want.Result.Cycles {
		t.Errorf("peer outcome differs: %d vs %d cycles", got.Result.Cycles, want.Result.Cycles)
	}
	if st := svcB.Stats(); st.PeerHits != 1 || st.Simulated != 0 || st.DiskHits != 0 {
		t.Errorf("stats after peer hit = %+v", st)
	}
	if fetches != 1 {
		t.Errorf("peer fetched %d times, want 1", fetches)
	}
	// The entry migrated: a cold service on B's directory hits disk.
	svcB2 := sim.NewService(sim.Options{CacheDir: dirB})
	if _, err := svcB2.Run(ctx, req); err != nil {
		t.Fatal(err)
	}
	if st := svcB2.Stats(); st.DiskHits != 1 || st.Simulated != 0 {
		t.Errorf("migrated entry not on disk; stats = %+v", st)
	}
}

// TestServiceCountersConcurrent is the lock contract for a Service's memo
// and counters: eight requests run at once while other goroutines poll
// Stats. Three are warm on disk, two come from the peer hook and the rest
// simulate, and a 4-entry disk budget forces evictions, so every path that
// updates the memo or a counter runs concurrently with the others. Under
// -race, dropping any one of Service's mu sections fails.
func TestServiceCountersConcurrent(t *testing.T) {
	ctx := context.Background()
	reqs := distinctTiny(8)
	dir := t.TempDir()
	if err := sim.NewService(sim.Options{CacheDir: dir}).RunAll(ctx, reqs[:3]); err != nil {
		t.Fatal(err)
	}
	peer := make(map[string]sim.Outcome) // read-only once the service starts
	origin := sim.NewService(sim.Options{})
	for _, req := range reqs[3:5] {
		out, err := origin.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		peer[req.Key()] = out
	}

	// Both peer hits wait for each other inside the hook, so their counter
	// updates are never ordered by an intervening mu section.
	var peerHits sync.WaitGroup
	peerHits.Add(len(peer))
	svc := sim.NewService(sim.Options{
		CacheDir:     dir,
		CacheEntries: 4,
		PeerFetch: func(_ context.Context, key string) (sim.Outcome, bool) {
			out, ok := peer[key]
			if ok {
				peerHits.Done()
				peerHits.Wait()
			}
			return out, ok
		},
	})
	// A disk hit's unlocked update is caught only if a Stats read lands
	// inside its short window. On two CPUs, one poller on the default
	// GOMAXPROCS did that in about half the runs. Three pollers on more Ps
	// than CPUs, so that the OS interleaves them with the requests, did it
	// in every run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					svc.Stats()
				}
			}
		}()
	}
	err := svc.RunAll(ctx, reqs)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Simulated+st.DiskHits+st.PeerHits != len(reqs) {
		t.Errorf("stats = %+v: simulated + disk hits + peer hits should be %d", st, len(reqs))
	}
	if st.PeerHits != 2 || st.DiskEvictions == 0 {
		t.Errorf("stats = %+v: want 2 peer hits and at least one disk eviction", st)
	}
}

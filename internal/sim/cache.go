package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// CacheVersion is the on-disk format/semantics version. Bump it whenever
// simulator behaviour changes in a result-visible way (timing model edits,
// new counters, workload generator changes), or a key's text comes to name
// another simulation: every stale entry then misses and is resimulated.
// Entries also self-invalidate when any request input changes, because the
// full Key() is part of the filename hash and is verified on load.
// Version 2: "preemptive:N" names a deadline, no longer a priority kernel.
const CacheVersion = 2

// CacheEntry is the JSON envelope of one cached simulation. It is both
// the on-disk format and the wire form of the peer-cache protocol
// (GET /v1/cache/{addr} serves the raw entry bytes), so a fleet peer can
// fetch, verify, and re-store an entry without a translation step.
type CacheEntry struct {
	Version int     `json:"version"`
	Key     string  `json:"key"`
	Outcome Outcome `json:"outcome"`
}

// CacheAddr returns the content address of a canonical request key: the
// sha256 of the key, hex-encoded. It names the entry on disk and in the
// peer-cache URL space, so routers and shards can address results without
// shipping (or escaping) the raw key.
func CacheAddr(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// DecodeCacheEntry parses and verifies one cache-entry payload (disk file
// or peer response) against the key the caller wanted. A version mismatch
// or a key mismatch — a stale entry, or a peer serving a hash collision or
// garbage — is reported as a miss, never an error: cache layers are
// best-effort by contract.
//
//gpulint:cachekey CacheEntry
func DecodeCacheEntry(data []byte, key string) (Outcome, bool) {
	var e CacheEntry
	if json.Unmarshal(data, &e) != nil || e.Version != CacheVersion || e.Key != key {
		return Outcome{}, false
	}
	return e.Outcome, true
}

// EncodeCacheEntry renders the canonical entry payload for a key/outcome
// pair (the exact bytes store would write).
//
//gpulint:cachekey CacheEntry
func EncodeCacheEntry(key string, out Outcome) ([]byte, error) {
	return json.Marshal(CacheEntry{Version: CacheVersion, Key: key, Outcome: out})
}

// diskCache persists outcomes under dir as <sha256(key)>.json. All
// operations are best-effort: an unreadable or stale entry is a miss and a
// failed store is ignored (the memo still has the result). When an entry
// or byte budget is configured, store evicts oldest-mtime entries until
// the directory fits — a shared cache tier must not grow forever.
type diskCache struct {
	dir        string
	maxEntries int   // 0 = unbounded
	maxBytes   int64 // 0 = unbounded
}

func (c *diskCache) path(key string) string {
	return filepath.Join(c.dir, CacheAddr(key)+".json")
}

func (c *diskCache) load(key string) (Outcome, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return Outcome{}, false
	}
	return DecodeCacheEntry(data, key)
}

// loadAddr returns the raw entry bytes for a content address (the hex
// sha256 of a key). It backs the peer-cache endpoint: the caller serves
// the bytes verbatim and the fetching peer verifies them against its key.
func (c *diskCache) loadAddr(addr string) ([]byte, bool) {
	if !validCacheAddr(addr) {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(c.dir, addr+".json"))
	if err != nil {
		return nil, false
	}
	return data, true
}

// validCacheAddr reports whether addr is a well-formed content address
// (64 lowercase hex chars). It is the path-traversal guard for loadAddr:
// anything else never touches the filesystem.
func validCacheAddr(addr string) bool {
	if len(addr) != 64 {
		return false
	}
	for i := 0; i < len(addr); i++ {
		c := addr[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// store writes the entry and then enforces the configured budget,
// returning how many older entries it evicted to make room.
func (c *diskCache) store(key string, out Outcome) (evicted int) {
	if os.MkdirAll(c.dir, 0o755) != nil {
		return 0
	}
	data, err := EncodeCacheEntry(key, out)
	if err != nil {
		return 0
	}
	// Write-then-rename keeps concurrent readers from seeing torn files.
	tmp, err := os.CreateTemp(c.dir, "simcache-*.tmp")
	if err != nil {
		return 0
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0
	}
	if tmp.Close() != nil {
		os.Remove(tmp.Name())
		return 0
	}
	if os.Rename(tmp.Name(), c.path(key)) != nil {
		os.Remove(tmp.Name())
		return 0
	}
	return c.enforceBudget(CacheAddr(key) + ".json")
}

// enforceBudget deletes oldest-mtime entries until the directory fits the
// configured entry-count and byte budgets. justWrote names the entry the
// caller just stored; it is exempt so a store can never evict its own
// result (even under a budget smaller than one entry). The scan is a
// ReadDir per store — O(entries), fine at the tens-of-thousands scale a
// shard cache reaches, and only paid when a budget is configured.
func (c *diskCache) enforceBudget(justWrote string) int {
	if c.maxEntries <= 0 && c.maxBytes <= 0 {
		return 0
	}
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	type entry struct {
		name  string
		size  int64
		mtime int64
	}
	var (
		files []entry
		total int64
	)
	for _, de := range ents {
		if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		files = append(files, entry{de.Name(), info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
	}
	// Oldest first; name breaks mtime ties so eviction order is stable on
	// coarse-resolution filesystems.
	sort.Slice(files, func(i, j int) bool {
		if files[i].mtime != files[j].mtime {
			return files[i].mtime < files[j].mtime
		}
		return files[i].name < files[j].name
	})
	evicted := 0
	count := len(files)
	for _, f := range files {
		over := (c.maxEntries > 0 && count > c.maxEntries) ||
			(c.maxBytes > 0 && total > c.maxBytes)
		if !over {
			break
		}
		if f.name == justWrote {
			continue
		}
		if os.Remove(filepath.Join(c.dir, f.name)) != nil {
			continue
		}
		count--
		total -= f.size
		evicted++
	}
	return evicted
}

package engine

import (
	"sync"
	"sync/atomic"

	"cecsan/internal/rt"
	"cecsan/prog"
)

// cacheShardCount is the number of lock-striped shards. A shard is selected
// by the low bits of the fingerprint's first byte, so structurally unrelated
// programs spread evenly (the fingerprint is an fnv128a hash).
const cacheShardCount = 64

// DefaultCacheCapacity bounds the total instrumented programs a Cache
// retains. The six Table II tools on their full-scale subsets make 60,274
// distinct (config, fingerprint) keys, at most 1,102 in one shard (HWASan and
// ASan share one config, so their entries coincide); the default allows
// 2,048 per shard, so the whole table stays on the cached path with 46%
// headroom on the fullest shard (TestDefaultCacheHoldsTableII pins it). A
// cached Juliet program, entry included, is about 1.7 KB, so a hostile
// campaign of all-distinct programs is bounded to about 220 MiB.
const DefaultCacheCapacity = 1 << 17

// Cache is a campaign-global instrumentation cache: one instrumented program
// per (instrumentation config, program fingerprint), shared by any number
// of engines and goroutines. The config is instrument.Config of the engine's
// profile: the fields the pass reads, so tools whose passes coincide share
// entries. Lookups stripe across cacheShardCount
// mutex-guarded shards keyed by fingerprint prefix; instrumentation itself
// runs outside the shard lock under a per-entry sync.Once, so N workers
// hitting the same fingerprint instrument exactly once while other shards
// stay available (single-flight).
//
// The cache is capacity-bounded. When the owning shard is full, a new
// fingerprint is not admitted: the requesting engine instruments inline and
// the result is not retained — the campaign degrades to uncached throughput
// for the overflow tail instead of deadlocking or evicting hot entries.
type Cache struct {
	capPerShard int
	shards      [cacheShardCount]cacheShard

	// profMu guards the config registry. Configs (everything that shapes the
	// instrumented output besides the program) are interned to a compact id
	// so shard keys hash a (uint32, [16]byte) pair instead of the full
	// rt.Profile struct.
	profMu    sync.Mutex
	profIDs   map[rt.Profile]uint32
	prefills  atomic.Int64
	overflows atomic.Int64
}

type cacheShard struct {
	mu sync.Mutex
	m  map[cacheKey]*cacheEntry
}

type cacheKey struct {
	pid uint32
	fp  prog.Fingerprint
}

// cacheEntry is one instrumented program; the Once makes concurrent first
// requests for the same key instrument exactly once.
type cacheEntry struct {
	once sync.Once
	p    *prog.Program
}

// NewCache returns a cache bounded to roughly capacity instrumented
// programs (<= 0 selects DefaultCacheCapacity). The bound is enforced per
// shard, so a pathological fingerprint distribution can cap out a shard
// early; overflow degrades to uncached instrumentation, never an error.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	per := capacity / cacheShardCount
	if per < 1 {
		per = 1
	}
	c := &Cache{capPerShard: per, profIDs: make(map[rt.Profile]uint32)}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]*cacheEntry)
	}
	return c
}

// profileID interns an instrumentation config, assigning ids in first-seen
// order.
func (c *Cache) profileID(p rt.Profile) uint32 {
	c.profMu.Lock()
	defer c.profMu.Unlock()
	if id, ok := c.profIDs[p]; ok {
		return id
	}
	id := uint32(len(c.profIDs))
	c.profIDs[p] = id
	return id
}

// lookup returns the entry for (pid, fp), creating it when absent and the
// shard has room. full reports that the shard was at capacity and no entry
// exists: the caller must instrument inline without caching.
func (c *Cache) lookup(pid uint32, fp prog.Fingerprint) (ent *cacheEntry, full bool) {
	sh := &c.shards[fp[0]&(cacheShardCount-1)]
	key := cacheKey{pid: pid, fp: fp}
	sh.mu.Lock()
	ent, ok := sh.m[key]
	if !ok {
		if len(sh.m) >= c.capPerShard {
			sh.mu.Unlock()
			c.overflows.Add(1)
			return nil, true
		}
		ent = &cacheEntry{}
		sh.m[key] = ent
	}
	sh.mu.Unlock()
	return ent, false
}

// Len returns the number of cached instrumented programs across all shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Prefills returns the number of warm fills performed through Preinstrument
// across all engines sharing the cache.
func (c *Cache) Prefills() int64 { return c.prefills.Load() }

// Overflows returns the number of lookups rejected because the owning shard
// was at capacity.
func (c *Cache) Overflows() int64 { return c.overflows.Load() }

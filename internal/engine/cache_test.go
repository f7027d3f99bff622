package engine

import (
	"runtime"
	"sync"
	"testing"

	"cecsan/internal/juliet"
	"cecsan/internal/sanitizers"
	"cecsan/prog"
)

// distinctPrograms flattens a sample suite into its program list and counts
// the distinct fingerprints (structurally identical cases can collide; the
// single-flight assertions key on fingerprints, not cases).
func distinctPrograms(t *testing.T, perCWE int) ([]*prog.Program, int) {
	t.Helper()
	var progs []*prog.Program
	for _, cs := range sampleSuite(t, perCWE) {
		progs = append(progs, cs.Bad, cs.Good)
	}
	fps := make(map[prog.Fingerprint]bool)
	for _, p := range progs {
		fps[p.Fingerprint()] = true
	}
	return progs, len(fps)
}

// TestCacheSingleFlight hammers one shared cache from many goroutines and
// asserts the single-flight invariant: no matter the worker count, each
// distinct fingerprint is instrumented exactly once (one counted miss), every
// other request is a hit on the interned entry, and all requests for a
// fingerprint observe the same instrumented program pointer. Run under
// -race this also proves the shard locking: the once bodies execute outside
// the shard mutex, so concurrent fills of different fingerprints do not
// serialize or tear.
func TestCacheSingleFlight(t *testing.T) {
	progs, distinct := distinctPrograms(t, 3)
	eng, err := New(sanitizers.CECSan, Options{Cache: NewCache(0)})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const rounds = 4
	results := make([][]*prog.Program, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = make([]*prog.Program, len(progs))
			for r := 0; r < rounds; r++ {
				for i, p := range progs {
					results[w][i] = eng.Instrument(p)
				}
			}
		}(w)
	}
	wg.Wait()

	for w := 1; w < workers; w++ {
		for i := range progs {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d got a different instrumented program for progs[%d]; cache entries must be interned", w, i)
			}
		}
	}
	s := eng.Stats()
	if s.CacheMisses != int64(distinct) {
		t.Errorf("CacheMisses = %d, want exactly one per distinct fingerprint (%d): single-flight broken", s.CacheMisses, distinct)
	}
	total := int64(workers * rounds * len(progs))
	if s.CacheHits != total-s.CacheMisses {
		t.Errorf("CacheHits = %d, want %d (every non-filling request counts as a hit)", s.CacheHits, total-s.CacheMisses)
	}
	if s.CacheOverflows != 0 {
		t.Errorf("CacheOverflows = %d, want 0 at default capacity", s.CacheOverflows)
	}
}

// TestCacheOverflowGraceful fills a deliberately tiny cache far past
// capacity from concurrent workers. Exhaustion must degrade, not fail:
// every request still returns an instrumented program (inline, uncached),
// overflows are counted, and the per-shard maps never exceed their bound.
func TestCacheOverflowGraceful(t *testing.T) {
	progs, _ := distinctPrograms(t, 3)
	cache := NewCache(cacheShardCount) // one entry per shard
	eng, err := New(sanitizers.CECSan, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range progs {
				ip := eng.Instrument(p)
				if ip == nil || ip == p {
					t.Error("overflowing Instrument must still return a fresh instrumented program")
					return
				}
			}
		}()
	}
	wg.Wait()

	if n := cache.Len(); n > cacheShardCount {
		t.Errorf("cache holds %d entries, capacity bound is %d", n, cacheShardCount)
	}
	s := eng.Stats()
	if s.CacheOverflows == 0 {
		t.Error("expected counted overflows when the cache is past capacity")
	}
	if got := s.CacheHits + s.CacheMisses; got != int64(8*len(progs)) {
		t.Errorf("hits+misses = %d, want %d: every request must land in exactly one per-request bucket", got, 8*len(progs))
	}
}

// TestCachePrefillAccounting pins the satellite-6 contract: Preinstrument
// warms the cache without touching the hit/miss counters (prefills are
// tracked separately), so CacheHitRate keeps measuring the run path alone
// and stays comparable with records produced before pre-instrumentation
// existed.
func TestCachePrefillAccounting(t *testing.T) {
	progs, distinct := distinctPrograms(t, 2)
	eng, err := New(sanitizers.CECSan, Options{Cache: NewCache(0), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	eng.Preinstrument(progs)
	s := eng.Stats()
	if s.CachePrefills != int64(len(progs)) {
		t.Errorf("CachePrefills = %d, want %d", s.CachePrefills, len(progs))
	}
	if s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Errorf("prefill touched the run-path counters: hits=%d misses=%d, want 0/0", s.CacheHits, s.CacheMisses)
	}

	for _, p := range progs {
		eng.Instrument(p)
	}
	s = eng.Stats()
	if s.CacheMisses != 0 {
		t.Errorf("CacheMisses = %d after a full prefill, want 0", s.CacheMisses)
	}
	if s.CacheHits != int64(len(progs)) {
		t.Errorf("CacheHits = %d, want %d", s.CacheHits, len(progs))
	}
	if r := s.CacheHitRate(); r != 1.0 {
		t.Errorf("CacheHitRate = %v, want 1.0 on a fully warmed run path", r)
	}
	if eng.cache.Len() != distinct {
		t.Errorf("cache.Len() = %d, want %d distinct fingerprints", eng.cache.Len(), distinct)
	}
}

// tableIITool is one Table II tool with the Juliet cases it runs.
type tableIITool struct {
	tool    sanitizers.Name
	include func(*juliet.Case) bool
}

// tableII lists the six Table II tools in the table's order.
var tableII = []tableIITool{
	{sanitizers.CECSan, func(*juliet.Case) bool { return true }},
	{sanitizers.PACMem, juliet.SubsetPACMem},
	{sanitizers.CryptSan, juliet.SubsetCryptSan},
	{sanitizers.HWASan, func(*juliet.Case) bool { return true }},
	{sanitizers.ASan, func(*juliet.Case) bool { return true }},
	{sanitizers.SoftBound, juliet.SubsetSoftBound},
}

// programs returns the bad and good programs of the suite's cases tt runs.
func (tt tableIITool) programs(suite []*juliet.Case) []*prog.Program {
	var progs []*prog.Program
	for _, cs := range suite {
		if tt.include(cs) {
			progs = append(progs, cs.Bad, cs.Good)
		}
	}
	return progs
}

// TestDefaultCacheHoldsTableII computes the (config, fingerprint) keys the
// six Table II tools request on their full-scale subsets — without
// instrumenting anything — and requires that no shard of a default cache
// would exceed its bound. It logs the key count: 60,274, HWASan and ASan
// sharing their entries. A generator or profile change that pushes Table II
// back onto the inline-instrument path fails here instead of silently
// slowing every Juliet campaign.
func TestDefaultCacheHoldsTableII(t *testing.T) {
	suite, err := juliet.Suite()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	var perShard [cacheShardCount]map[cacheKey]bool
	for i := range perShard {
		perShard[i] = make(map[cacheKey]bool)
	}
	for _, tt := range tableII {
		eng, err := New(tt.tool, Options{Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range tt.programs(suite) {
			fp := p.Fingerprint()
			perShard[fp[0]&(cacheShardCount-1)][cacheKey{pid: eng.pid, fp: fp}] = true
		}
	}
	keys, fullest := 0, 0
	for _, m := range perShard {
		keys += len(m)
		fullest = max(fullest, len(m))
	}
	t.Logf("%d keys, fullest shard %d of %d", keys, fullest, c.capPerShard)
	if fullest > c.capPerShard {
		t.Fatalf("Table II needs %d entries in one shard; the default cache holds %d per shard", fullest, c.capPerShard)
	}
}

// BenchmarkPreinstrumentTableII measures the instrumentation cache's share
// of a Table II set-up: each iteration builds the six tools' engines on a
// fresh cache and preinstruments their subsets of the full Juliet suite,
// which is generated once beforehand. It reports what one iteration
// allocates (alloc-MiB) and the heap live after a collection at its end,
// the suite plus every cached program (live-MiB).
func BenchmarkPreinstrumentTableII(b *testing.B) {
	suite, err := juliet.Suite()
	if err != nil {
		b.Fatal(err)
	}
	progs := make([][]*prog.Program, len(tableII))
	for i, tt := range tableII {
		progs[i] = tt.programs(suite)
	}
	var ms runtime.MemStats
	var alloc, live uint64
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		runtime.GC() // drop the previous iteration's cache
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		b.StartTimer()
		c := NewCache(0)
		for i, tt := range tableII {
			eng, err := New(tt.tool, Options{Workers: 1, Cache: c})
			if err != nil {
				b.Fatal(err)
			}
			eng.Preinstrument(progs[i])
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		alloc += ms.TotalAlloc - before
		runtime.GC()
		runtime.ReadMemStats(&ms)
		live += ms.HeapAlloc
		runtime.KeepAlive(c)
		b.StartTimer()
	}
	const mib = 1 << 20
	b.ReportMetric(float64(alloc)/float64(b.N)/mib, "alloc-MiB")
	b.ReportMetric(float64(live)/float64(b.N)/mib, "live-MiB")
}

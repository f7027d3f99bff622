package engine

import (
	"sync"
	"testing"

	"cecsan/internal/alloc"
	"cecsan/internal/instrument"
	"cecsan/internal/interp"
	"cecsan/internal/juliet"
	"cecsan/internal/mem"
	"cecsan/internal/rt"
	"cecsan/internal/sanitizers"
	"cecsan/prog"
)

// sampleSuite generates a small Juliet sample spanning every CWE.
func sampleSuite(t *testing.T, perCWE int) []*juliet.Case {
	t.Helper()
	var suite []*juliet.Case
	for _, cwe := range juliet.AllCWEs() {
		cs, err := juliet.Generate(cwe, perCWE)
		if err != nil {
			t.Fatalf("Generate(%v): %v", cwe, err)
		}
		suite = append(suite, cs...)
	}
	return suite
}

// uncachedRun is the pre-engine pipeline: fresh sanitizer, fresh
// instrumentation, fresh machine. The property tests compare the engine's
// cached/pooled path against it.
func uncachedRun(t *testing.T, tool sanitizers.Name, p *prog.Program, inputs [][]byte) *interp.Result {
	t.Helper()
	san, err := sanitizers.New(tool)
	if err != nil {
		t.Fatalf("New(%s): %v", tool, err)
	}
	ip := instrument.Apply(p, san.Profile)
	m, err := interp.New(ip, san, interp.DefaultOptions())
	if err != nil {
		t.Fatalf("interp.New: %v", err)
	}
	for _, in := range inputs {
		m.Feed(in)
	}
	return m.Run()
}

// sameResult compares everything the harness can observe about a run.
func sameResult(a, b *interp.Result) bool {
	if (a.Violation == nil) != (b.Violation == nil) {
		return false
	}
	if a.Violation != nil && (a.Violation.Kind != b.Violation.Kind ||
		a.Violation.Func != b.Violation.Func || a.Violation.PC != b.Violation.PC) {
		return false
	}
	if (a.Fault == nil) != (b.Fault == nil) {
		return false
	}
	if a.Fault != nil && *a.Fault != *b.Fault {
		return false
	}
	if (a.Err == nil) != (b.Err == nil) {
		return false
	}
	return a.Ret == b.Ret && a.Stats == b.Stats
}

// TestCachedMatchesUncached is the engine's core property: for every tool,
// running a sampled Juliet subset through the cached + pooled pipeline gives
// byte-identical results (violations, faults, return values and all stats,
// including the RSS gauges) to the fresh-everything pipeline.
func TestCachedMatchesUncached(t *testing.T) {
	suite := sampleSuite(t, 3)
	for _, tool := range sanitizers.All() {
		eng, err := New(tool, Options{})
		if err != nil {
			t.Fatalf("engine.New(%s): %v", tool, err)
		}
		for _, cs := range suite {
			// Run each program twice through the engine so the second pass
			// exercises both the instrumentation cache and recycled
			// resources.
			for round := 0; round < 2; round++ {
				for _, v := range []struct {
					p      *prog.Program
					inputs [][]byte
					which  string
				}{{cs.Bad, cs.BadInputs, "bad"}, {cs.Good, cs.GoodInputs, "good"}} {
					got, err := eng.Run(v.p, v.inputs...)
					if err != nil {
						t.Fatalf("%s %s %s: engine run: %v", tool, cs.ID, v.which, err)
					}
					want := uncachedRun(t, tool, v.p, v.inputs)
					if !sameResult(got, want) {
						t.Fatalf("%s %s %s round %d: cached run diverged:\n got %+v\nwant %+v",
							tool, cs.ID, v.which, round, got, want)
					}
				}
			}
		}
		s := eng.Stats()
		if s.CacheHits == 0 {
			t.Errorf("%s: no cache hits after repeated runs (misses=%d)", tool, s.CacheMisses)
		}
		if s.Runs == 0 || s.ExecuteTime <= 0 {
			t.Errorf("%s: stats not recorded: %+v", tool, s)
		}
	}
}

// TestConcurrentEngineUse hammers one engine from many goroutines — shared
// cache entries, racing pool traffic — and checks every result against the
// sequential reference. Run with -race this is the engine's thread-safety
// proof.
func TestConcurrentEngineUse(t *testing.T) {
	suite := sampleSuite(t, 2)
	tool := sanitizers.CECSan
	eng, err := New(tool, Options{Workers: 8})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	want := make([]*interp.Result, len(suite))
	for i, cs := range suite {
		want[i] = uncachedRun(t, tool, cs.Bad, cs.BadInputs)
	}
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, rounds)
	for r := 0; r < rounds; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- eng.ForEach(len(suite), func(i int) error {
				got, err := eng.Run(suite[i].Bad, suite[i].BadInputs...)
				if err != nil {
					return err
				}
				if !sameResult(got, want[i]) {
					t.Errorf("case %d diverged under concurrency", i)
				}
				return nil
			})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("ForEach: %v", err)
		}
	}
	if s := eng.Stats(); s.Runs != int64(rounds*len(suite)) {
		t.Errorf("Runs = %d, want %d", s.Runs, rounds*len(suite))
	}
}

// TestInstrumentCacheKeying verifies hits only happen for structurally
// identical programs and that hit/miss counters add up.
func TestInstrumentCacheKeying(t *testing.T) {
	build := func(off int64) *prog.Program {
		pb := prog.NewProgram()
		f := pb.Function("main", 0)
		buf := f.MallocBytes(16)
		f.Store(buf, off, f.Const(1), prog.Char())
		f.Free(buf)
		f.RetVoid()
		return pb.MustBuild()
	}
	eng, err := New(sanitizers.ASan, Options{})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	a1, a2, b := build(0), build(0), build(8)
	ia := eng.Instrument(a1)
	if eng.Instrument(a2) != ia {
		t.Error("structurally identical program did not hit the cache")
	}
	if eng.Instrument(b) == ia {
		t.Error("distinct program shared a cache entry")
	}
	s := eng.Stats()
	if s.CacheHits != 1 || s.CacheMisses != 2 {
		t.Errorf("hits/misses = %d/%d, want 1/2", s.CacheHits, s.CacheMisses)
	}
	if s.InstrumentTime <= 0 {
		t.Error("instrument time not recorded")
	}
}

// TestFreshRuntimeMode checks the perf-harness mode: no pooling, every
// machine on untouched resources, results still identical.
func TestFreshRuntimeMode(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	buf := f.MallocBytes(1024)
	f.Store(buf, 0, f.Const(7), prog.Int64T())
	v := f.Load(buf, 0, prog.Int64T())
	f.Free(buf)
	f.Ret(v)
	p := pb.MustBuild()

	fresh, err := New(sanitizers.CECSan, Options{FreshRuntime: true})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	pooled, err := New(sanitizers.CECSan, Options{})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	fr, err := fresh.Run(p)
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	pr, err := pooled.Run(p)
	if err != nil {
		t.Fatalf("pooled run: %v", err)
	}
	if !sameResult(fr, pr) {
		t.Fatalf("fresh and pooled runs diverged:\n fresh %+v\npooled %+v", fr, pr)
	}
}

// TestRuntimeRecycling pins the engine's sanitizer pooling: sequential
// machines on a CECSan engine reuse the same runtime instance (its
// constructor's 3 MiB table allocation is the dominant per-run cost), an
// HWASan engine recycles too (ResetRuntime rewinds the tag RNG to the
// constructor seed, so the recycled tag stream is byte-identical to a fresh
// runtime's), and a FreshRuntime engine never recycles anything.
func TestRuntimeRecycling(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	buf := f.MallocBytes(64)
	f.Store(buf, 0, f.Const(1), prog.Int64T())
	f.Free(buf)
	f.Ret(f.Const(0))
	p := pb.MustBuild()

	runOnce := func(e *Engine) interface{} {
		m, err := e.NewMachine(p)
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}
		rt := m.Runtime()
		if res := m.Run(); res.Err != nil || res.Violation != nil || res.Fault != nil {
			t.Fatalf("run failed: %+v", res)
		}
		m.Release()
		return rt
	}
	// recycles reports whether a second sequential machine gets the runtime
	// its predecessor released. The engine's free lists never drop an entry,
	// so one pair of machines decides it.
	recycles := func(e *Engine) bool {
		return runOnce(e) == runOnce(e)
	}

	cec, err := New(sanitizers.CECSan, Options{})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	if !recycles(cec) {
		t.Error("CECSan engine did not recycle the runtime across sequential machines")
	}

	hw, err := New(sanitizers.HWASan, Options{})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	if !recycles(hw) {
		t.Error("HWASan engine did not recycle the runtime; ResetRuntime rewinds the tag RNG, so pooling is safe")
	}

	fresh, err := New(sanitizers.CECSan, Options{FreshRuntime: true})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	if recycles(fresh) {
		t.Error("FreshRuntime engine recycled a runtime; perf mode must rebuild per machine")
	}
}

// TestHardenedPooledByteIdentity is the temporal-hardening pooling proof: a
// hardened runtime carries extra cross-run state (generation stamps in entry
// high slots, the delayed-reuse FIFO, quarantined chunks), and a recycled
// runtime must shed all of it on Reset. A multi-case batch — violating and
// clean programs interleaved, run twice — on a pooled hardened engine must
// produce results byte-identical (violations, return values, every stat
// including the temporal counters) to a FreshRuntime engine that rebuilds
// the 3 MiB table and quarantine per case.
func TestHardenedPooledByteIdentity(t *testing.T) {
	suite := sampleSuite(t, 2)
	for _, tool := range []sanitizers.Name{
		sanitizers.CECSanHardened, sanitizers.PACMemHardened, sanitizers.CryptSanHardened,
	} {
		pooled, err := New(tool, Options{})
		if err != nil {
			t.Fatalf("engine.New(%s): %v", tool, err)
		}
		fresh, err := New(tool, Options{FreshRuntime: true})
		if err != nil {
			t.Fatalf("engine.New(%s, fresh): %v", tool, err)
		}
		for round := 0; round < 2; round++ {
			for _, cs := range suite {
				for _, v := range []struct {
					p      *prog.Program
					inputs [][]byte
					which  string
				}{{cs.Bad, cs.BadInputs, "bad"}, {cs.Good, cs.GoodInputs, "good"}} {
					got, err := pooled.Run(v.p, v.inputs...)
					if err != nil {
						t.Fatalf("%s %s %s: pooled run: %v", tool, cs.ID, v.which, err)
					}
					want, err := fresh.Run(v.p, v.inputs...)
					if err != nil {
						t.Fatalf("%s %s %s: fresh run: %v", tool, cs.ID, v.which, err)
					}
					if !sameResult(got, want) {
						t.Fatalf("%s %s %s round %d: pooled hardened run diverged:\n got %+v\nwant %+v",
							tool, cs.ID, v.which, round, got, want)
					}
				}
			}
		}
	}
}

// TestPooledShadowResetAtChunkEnd pins the dirty-prefix reset of the
// sanitizers' shadow stores: a first run writes ASan shadow (HWASan tags)
// through the last byte of the heap's first shadow chunks, and a second run
// on the same runtime, recycled the way the engine pool recycles it
// (ResetRuntime, then attach to the next machine), loads from the last
// granule of each of those chunks without writing their shadow. Recycled
// chunks may land at any index, so every chunk's last byte is read. Stale
// shadow would flip the second run's verdict, so it must match a fresh
// runtime's run in result and stats.
func TestPooledShadowResetAtChunkEnd(t *testing.T) {
	for _, tc := range []struct {
		tool     sanitizers.Name
		granule  uint64
		free     bool // poison the block (ASan); HWASan keeps its tag
		freshHit bool // whether a fresh runtime reports the load
	}{
		{sanitizers.ASan, 8, true, false},
		{sanitizers.HWASan, 16, false, true},
	} {
		t.Run(string(tc.tool), func(t *testing.T) {
			// One shadow chunk covers ChunkSize granules, and the heap's
			// shadow starts at a chunk boundary, so the shadow byte of
			// last(k) is the last byte of the heap's k-th shadow chunk.
			span := mem.ChunkSize * tc.granule
			last := func(k uint64) uint64 { return alloc.HeapBase + k*span - tc.granule }

			pb := prog.NewProgram()
			f := pb.Function("main", 0)
			p := f.MallocBytes(int64(2 * span))
			if tc.free {
				f.Free(p)
			}
			f.Ret(p)
			writer := pb.MustBuild()

			san, err := sanitizers.New(tc.tool)
			if err != nil {
				t.Fatal(err)
			}
			run := func(p *prog.Program) *interp.Result {
				m, err := interp.New(instrument.Apply(p, san.Profile), san, interp.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				return m.Run()
			}
			res := run(writer)
			if res.Err != nil || res.Violation != nil {
				t.Fatalf("writer: %v %v", res.Err, res.Violation)
			}
			const addrMask = uint64(1)<<56 - 1
			if base := uint64(res.Ret) & addrMask; last(1) < base || last(2) >= base+2*span {
				t.Fatalf("block %#x..+%#x does not cover %#x and %#x", base, 2*span, last(1), last(2))
			}
			san.Runtime.(rt.Resettable).ResetRuntime()

			pb = prog.NewProgram()
			f = pb.Function("main", 0)
			sum := f.Const(0)
			for k := uint64(1); k <= 3; k++ {
				ptr := uint64(res.Ret)&^addrMask | last(k) // keep the block's tag
				sum = f.Add(sum, f.Load(f.Const(int64(ptr)), 0, prog.Int64T()))
			}
			f.Ret(sum)
			reader := pb.MustBuild()

			got := run(reader)
			want := uncachedRun(t, tc.tool, reader, nil)
			if (want.Violation != nil) != tc.freshHit {
				t.Fatalf("fresh reader violation = %v, want reported = %v", want.Violation, tc.freshHit)
			}
			if !sameResult(got, want) {
				t.Fatalf("recycled reader = %+v (violation %v), fresh = %+v (violation %v)", got.Stats, got.Violation, want.Stats, want.Violation)
			}
		})
	}
}

// BenchmarkPooledCase is the per-run fixed cost of a Juliet-sized program:
// NewMachine, Run and Release of one case on a warm cache and warm pools.
func BenchmarkPooledCase(b *testing.B) {
	cs, err := juliet.Generate(juliet.AllCWEs()[0], 1)
	if err != nil {
		b.Fatal(err)
	}
	p, inputs := cs[0].Bad, cs[0].BadInputs
	for _, tool := range []sanitizers.Name{sanitizers.CECSan, sanitizers.HWASan, sanitizers.ASan} {
		b.Run(string(tool), func(b *testing.B) {
			eng, err := New(tool, Options{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			eng.Preinstrument([]*prog.Program{p})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := eng.NewMachine(p)
				if err != nil {
					b.Fatal(err)
				}
				m.Feed(inputs...)
				m.Run()
				m.Release()
			}
		})
	}
}

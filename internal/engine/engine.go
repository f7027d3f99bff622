// Package engine is the unified execution engine: one object that owns the
// whole compile → instrument → execute pipeline for a chosen sanitizer.
//
// Every consumer in the repository — the public cecsan API, the Juliet and
// CVE harnesses, the performance suites and the cmd/ tools — goes through an
// Engine instead of wiring instrument.Apply and interp.New together by hand.
// Centralizing the pipeline buys three things:
//
//   - An instrumentation cache. Instrumentation is deterministic in
//     (program, instrument.Config(profile)), and the interpreter never
//     mutates instructions, so one instrumented program is shared by any
//     number of concurrent machines. The cache is content-addressed by
//     (config, Fingerprint), sharded by fingerprint prefix with
//     single-flight instrumentation (see Cache), and campaign-global:
//     Options.Cache lets every engine in a multi-tool campaign share one
//     bounded cache, and Preinstrument warms it for known case families so
//     the run path never compiles inline.
//
//   - Pooled execution resources. Address spaces, heaps and globals layouts
//     are recycled through an engine-owned free list via
//     interp.Resources.Reset, which is byte-identical to fresh construction
//     (same addresses, zeroed pages, RSS gauge restarted) — detection
//     results and stats cannot change, only allocation pressure drops. Perf
//     measurement opts out with Options.FreshRuntime, preserving its
//     fresh-process-per-rep semantics.
//
//   - A scheduler. ForEach fans work items across a bounded worker pool and
//     the engine aggregates run counters (cache hits, instrument vs execute
//     time split, cases/sec) into Stats.
//
// Sanitizer runtimes are per-process state (metadata tables, shadow,
// quarantine) and are never shared between live machines. Runtimes that
// implement rt.Resettable — the CECSan family, ASan's shadow, SoftBound's
// metadata maps, and HWASan (whose reset rewinds the tag RNG to the
// constructor seed, so the recycled tag stream is byte-identical to a fresh
// runtime's) — are recycled through a pool after an explicit reset back to
// post-constructor state; all others are built fresh for every machine.
// FreshRuntime mode disables both pools.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cecsan/internal/core"
	"cecsan/internal/faultinject"
	"cecsan/internal/instrument"
	"cecsan/internal/interp"
	"cecsan/internal/obs"
	"cecsan/internal/rt"
	"cecsan/internal/sanitizers"
	"cecsan/prog"
)

// Options configures an Engine. The zero value is usable: default worker
// count, default interpreter limits, pooled resources.
type Options struct {
	// CECSan overrides CECSan's own options (ablations, temporal-hardening
	// knobs). Only consulted when the engine's tool is CECSan or
	// CECSan-hardened.
	CECSan *core.Options
	// Workers bounds ForEach concurrency; <= 0 selects GOMAXPROCS.
	Workers int
	// MaxInstructions bounds each run's executed instructions — the per-case
	// step budget (0 = interpreter default). Exhaustion is classified as a
	// FaultOutcome of class FaultStepBudget.
	MaxInstructions int64
	// MaxCallDepth bounds each run's program recursion (0 = interpreter
	// default).
	MaxCallDepth int
	// WallBudget bounds each run's wall-clock time via a cancellable
	// watchdog; 0 disables the watchdog. Exceeding it interrupts the machine
	// at the next loop backedge or call and classifies the run as
	// FaultWallBudget.
	WallBudget time.Duration
	// HeapBudget bounds each run's live simulated heap in bytes; 0 = no
	// bound. Exceeding it is classified as FaultHeapBudget.
	HeapBudget int64
	// Seed seeds each machine's program-visible rand() stream (0 = 1).
	Seed uint64
	// FaultSeed enables deterministic fault injection: each case's fault
	// plan derives from (FaultSeed, program fingerprint), so campaigns are
	// byte-reproducible whatever the worker count. 0 disables injection.
	FaultSeed uint64
	// FaultPlanFor, when set, overrides FaultSeed with an explicit per-case
	// plan lookup (tests target individual programs this way).
	FaultPlanFor func(prog.Fingerprint) faultinject.Plan
	// RuntimeSeed seeds RNG-bearing sanitizer runtimes (HWASan's tag RNG)
	// so differential runs are reproducible; 0 keeps each runtime's stock
	// stream.
	RuntimeSeed uint64
	// FreshRuntime disables resource pooling: every machine gets a fresh
	// address space, heap and globals layout, like a new OS process. The
	// perf harness uses this so each rep pays the same page-fault profile
	// the paper's fresh-process measurements pay.
	FreshRuntime bool
	// Progress, when set, is called from ForEach with (done, total) every
	// ProgressEvery completions and once at the end.
	Progress func(done, total int)
	// ProgressEvery is the progress callback stride (<= 0 = 100).
	ProgressEvery int
	// Obs, when set, attaches the observability layer: engine counters are
	// mirrored as registry gauges, each execution's instrument/run/reset
	// phases are recorded as a request trace into Obs.Flight when set, and
	// executed checks are attributed to their static sites when Obs.Sites
	// is set.
	// Observability only reads execution state — results are identical with
	// or without it.
	Obs *obs.Observer
	// Cache, when set, is the campaign-global instrumentation cache this
	// engine shares with others (typically one Cache across all tools of a
	// Table II campaign). Nil gives the engine a private cache of
	// DefaultCacheCapacity — the pre-campaign-cache behaviour.
	Cache *Cache
	// DisableFusion makes this engine's machines decode programs without
	// superinstructions (equivalence testing; fused and unfused execution
	// are observationally identical).
	DisableFusion bool
}

// Engine runs programs under one sanitizer with cached instrumentation and
// pooled execution resources. It is safe for concurrent use.
type Engine struct {
	tool       sanitizers.Name
	opts       Options
	profile    rt.Profile
	interpOpts interp.Options

	cache *Cache
	pid   uint32 // the id of the engine's instrumentation config within the cache

	pool    freeList[*interp.Resources] // Reset between uses
	sanPool freeList[rt.Sanitizer]      // bundles whose runtime is rt.Resettable

	runs           atomic.Int64
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cachePrefills  atomic.Int64
	cacheOverflows atomic.Int64
	cacheBypasses  atomic.Int64
	instrumentNS   atomic.Int64
	executeNS      atomic.Int64

	// wallMu guards the wall-clock span over all Run calls. A mutex (not a
	// pair of atomics) so Stats() snapshots first-start and last-end
	// consistently relative to in-flight runs.
	wallMu     sync.Mutex
	firstStart time.Time
	lastEnd    time.Time

	faults              atomic.Int64
	faultsDeterministic atomic.Int64
	faultsPoolSuspect   atomic.Int64
	faultRetries        atomic.Int64
	degradedAllocs      atomic.Int64
	injectedFaults      atomic.Int64

	generationWraps     atomic.Int64
	indexSpills         atomic.Int64
	quarantineEvictions atomic.Int64
	quarantineFlushes   atomic.Int64

	// Observability instruments, resolved once in New when Options.Obs is
	// set; all nil otherwise so the hot path stays a pair of nil checks.
	runDurUS  *obs.Histogram // per-run execute wall time, microseconds
	runChecks *obs.Histogram // per-run executed check count

	// flight receives engine-owned traces (Obs.Flight); traceSeed derives
	// their IDs from the tool name.
	flight    *obs.FlightRecorder
	traceSeed uint64
}

// New builds an engine for the named sanitizer. Only the instrumentation
// profile is resolved here; runtimes are constructed per machine.
func New(tool sanitizers.Name, opts Options) (*Engine, error) {
	var profile rt.Profile
	var err error
	if (tool == sanitizers.CECSan || tool == sanitizers.CECSanHardened) && opts.CECSan != nil {
		profile = core.ProfileFor(*opts.CECSan)
	} else {
		profile, err = sanitizers.ProfileFor(tool)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	iopts := interp.DefaultOptions()
	if opts.MaxInstructions > 0 {
		iopts.MaxInstructions = opts.MaxInstructions
	}
	if opts.MaxCallDepth > 0 {
		iopts.MaxCallDepth = opts.MaxCallDepth
	}
	if opts.HeapBudget > 0 {
		iopts.MaxHeapBytes = opts.HeapBudget
	}
	if opts.Seed != 0 {
		iopts.Seed = opts.Seed
	}
	iopts.DisableFusion = opts.DisableFusion
	cache := opts.Cache
	if cache == nil {
		cache = NewCache(0)
	}
	e := &Engine{
		tool:       tool,
		opts:       opts,
		profile:    profile,
		interpOpts: iopts,
		cache:      cache,
		pid:        cache.profileID(instrument.Config(profile)),
	}
	if o := opts.Obs; o != nil {
		if o.Sites != nil {
			e.interpOpts.CheckObserver = o.Sites.ForTool(string(tool))
		}
		e.initObs(o)
	}
	return e, nil
}

// initObs registers the engine's counters as registry series labelled by
// tool. Func gauges read the live atomics at snapshot time, so re-building
// an engine for the same tool simply re-points the series at the new engine
// (GaugeFunc replaces the callback).
func (e *Engine) initObs(o *obs.Observer) {
	if o.Flight != nil {
		h := fnv.New64a()
		h.Write([]byte(e.tool))
		e.flight, e.traceSeed = o.Flight, h.Sum64()
	}
	r := o.Registry
	tl := obs.L("tool", string(e.tool))
	for _, g := range []struct {
		name string
		fn   func() float64
	}{
		{"engine_runs_total", func() float64 { return float64(e.runs.Load()) }},
		{"engine_cache_hits", func() float64 { return float64(e.cacheHits.Load()) }},
		{"engine_cache_misses", func() float64 { return float64(e.cacheMisses.Load()) }},
		{"engine_cache_prefills", func() float64 { return float64(e.cachePrefills.Load()) }},
		{"engine_cache_overflows", func() float64 { return float64(e.cacheOverflows.Load()) }},
		{"engine_cache_bypasses", func() float64 { return float64(e.cacheBypasses.Load()) }},
		{"engine_cache_hit_rate", func() float64 { return e.Stats().CacheHitRate() }},
		{"engine_cases_per_sec", func() float64 { return e.Stats().CasesPerSec() }},
		{"engine_execute_seconds", func() float64 { return time.Duration(e.executeNS.Load()).Seconds() }},
		{"engine_instrument_seconds", func() float64 { return time.Duration(e.instrumentNS.Load()).Seconds() }},
		{"engine_faults_total", func() float64 { return float64(e.faults.Load()) }},
		{"engine_faults_deterministic", func() float64 { return float64(e.faultsDeterministic.Load()) }},
		{"engine_faults_pool_suspect", func() float64 { return float64(e.faultsPoolSuspect.Load()) }},
		{"engine_fault_retries", func() float64 { return float64(e.faultRetries.Load()) }},
		{"engine_degraded_allocs", func() float64 { return float64(e.degradedAllocs.Load()) }},
		{"engine_injected_faults", func() float64 { return float64(e.injectedFaults.Load()) }},
		{"engine_generation_wraps", func() float64 { return float64(e.generationWraps.Load()) }},
		{"engine_index_spills", func() float64 { return float64(e.indexSpills.Load()) }},
		{"engine_quarantine_evictions", func() float64 { return float64(e.quarantineEvictions.Load()) }},
		{"engine_quarantine_flushes", func() float64 { return float64(e.quarantineFlushes.Load()) }},
	} {
		r.GaugeFunc(g.name, g.fn, tl)
	}
	e.runDurUS = r.Histogram("engine_run_duration_us", tl)
	e.runChecks = r.Histogram("engine_run_checks", tl)
}

// Tool returns the engine's sanitizer name.
func (e *Engine) Tool() sanitizers.Name { return e.tool }

// Profile returns the instrumentation profile the engine compiles with.
func (e *Engine) Profile() rt.Profile { return e.profile }

// newSanitizer constructs a fresh sanitizer bundle for one machine.
func (e *Engine) newSanitizer() (rt.Sanitizer, error) {
	if (e.tool == sanitizers.CECSan || e.tool == sanitizers.CECSanHardened) && e.opts.CECSan != nil {
		return core.Sanitizer(*e.opts.CECSan)
	}
	return sanitizers.NewSeeded(e.tool, e.opts.RuntimeSeed)
}

// Instrument returns the instrumented form of p under the engine's profile,
// from the (possibly campaign-shared) cache when a structurally identical
// program was seen before. Cache accounting is per request: every call
// counts exactly one hit or miss, whatever the sharding or concurrency, so
// Stats.CacheHitRate stays comparable across cache topologies.
func (e *Engine) Instrument(p *prog.Program) *prog.Program {
	return e.instrument(p, false)
}

// Preinstrument warms the instrumentation cache for the given programs (the
// known case families of a campaign — e.g. every bad and good variant)
// before the run loop, fanning out across the engine's worker count. Warm
// fills count as Stats.CachePrefills, not as run-path hits or misses: after
// a complete pass, the run loop serves every Instrument request from cache
// and its hit rate reflects that.
func (e *Engine) Preinstrument(progs []*prog.Program) {
	n := len(progs)
	if n == 0 {
		return
	}
	workers := e.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				e.instrument(progs[i], true)
			}
		}()
	}
	wg.Wait()
}

// instrument is the shared cache path. prefill marks a warm fill from
// Preinstrument, which is accounted separately from run-path requests.
func (e *Engine) instrument(p *prog.Program, prefill bool) *prog.Program {
	fp := p.Fingerprint()
	ent, full := e.cache.lookup(e.pid, fp)
	if full {
		// Shard at capacity: degrade gracefully to uncached instrumentation.
		e.cacheOverflows.Add(1)
		if prefill {
			e.cachePrefills.Add(1)
		} else {
			e.cacheMisses.Add(1)
		}
		return e.apply(p)
	}
	miss := false
	ent.once.Do(func() {
		miss = true
		ent.p = e.apply(p)
	})
	switch {
	case prefill:
		e.cachePrefills.Add(1)
		if miss {
			e.cache.prefills.Add(1)
		}
	case miss:
		e.cacheMisses.Add(1)
	default:
		e.cacheHits.Add(1)
	}
	return ent.p
}

// apply runs the instrumentation pass, recording its time.
func (e *Engine) apply(p *prog.Program) *prog.Program {
	start := time.Now()
	ip := instrument.Apply(p, e.profile)
	e.instrumentNS.Add(time.Since(start).Nanoseconds())
	return ip
}

// freeList is an engine-owned stack of recycled bundles. Unlike a
// sync.Pool it never drops an entry (the GC clears a sync.Pool, and the race
// detector makes it discard Puts at random), so whether a machine runs on
// recycled state depends only on the order of acquires and releases. A
// bundle is only created when the list is empty, so the list never holds
// more than the peak number of machines in flight.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
}

// get pops the most recently released bundle; ok is false when none is free.
func (l *freeList[T]) get() (v T, ok bool) {
	l.mu.Lock()
	if n := len(l.items); n > 0 {
		v, ok = l.items[n-1], true
		var zero T
		l.items[n-1] = zero
		l.items = l.items[:n-1]
	}
	l.mu.Unlock()
	return v, ok
}

// put releases a bundle for reuse.
func (l *freeList[T]) put(v T) {
	l.mu.Lock()
	l.items = append(l.items, v)
	l.mu.Unlock()
}

// acquire hands out a resource bundle: a pooled one (already Reset) when
// available, a fresh one otherwise. The second return reports which.
func (e *Engine) acquire() (*interp.Resources, bool, error) {
	if r, ok := e.pool.get(); ok {
		return r, true, nil
	}
	r, err := interp.NewResources(e.interpOpts.AddrBits)
	return r, false, err
}

// release resets a bundle and returns it to the pool.
func (e *Engine) release(r *interp.Resources) {
	r.Reset()
	e.pool.put(r)
}

// acquireSanitizer hands out a sanitizer bundle: a recycled one when the
// pool has one, fresh otherwise (the second return reports which). Only
// bundles whose runtime implements rt.Resettable ever enter the pool, so a
// pooled bundle is already back in post-constructor state.
func (e *Engine) acquireSanitizer() (rt.Sanitizer, bool, error) {
	if s, ok := e.sanPool.get(); ok {
		return s, true, nil
	}
	s, err := e.newSanitizer()
	return s, false, err
}

// releaseSanitizer recycles a bundle when its runtime can be restored to
// freshly-constructed state; otherwise the bundle is dropped for the GC.
func (e *Engine) releaseSanitizer(s rt.Sanitizer) {
	if r, ok := s.Runtime.(rt.Resettable); ok {
		r.ResetRuntime()
		e.sanPool.put(s)
	}
}

// Machine is one prepared execution: an instrumented program bound to a
// fresh sanitizer runtime on (pooled or fresh) resources. A Machine is used
// by a single goroutine and Run at most once.
type Machine struct {
	eng      *Engine
	inner    *interp.Machine
	san      rt.Sanitizer
	res      *interp.Resources
	inj      *faultinject.Injector // nil outside fault mode
	fresh    bool                  // built for FreshRuntime/retry: never pooled
	recycled bool                  // runtime or resources came from a pool
	faulted  bool                  // a panic unwound through this machine
	released bool

	tr       *obs.RequestTrace // receives instrument/run/reset spans; nil when untraced
	ownTrace bool              // tr was started by NewMachine: Release finishes it
	result   *interp.Result    // the traced Run's result, for the trace outcome
}

// startTrace begins an engine-owned trace for one execution of p when a
// flight recorder is armed; nil otherwise. The ID is a pure function of
// (tool, program fingerprint), so the retained ID set does not depend on
// scheduling; the class is the tool name.
func (e *Engine) startTrace(p *prog.Program) *obs.RequestTrace {
	if e.flight == nil {
		return nil
	}
	fp := p.Fingerprint()
	idx := binary.LittleEndian.Uint64(fp[:8])
	return &obs.RequestTrace{
		ID:    obs.DeriveTraceID(e.traceSeed, idx),
		Class: string(e.tool),
		Index: idx,
		Start: time.Now(),
	}
}

// finishTrace hands an engine-owned trace to the recorder with the outcome
// of the execution's final result (nil when the machine never ran).
func (e *Engine) finishTrace(tr *obs.RequestTrace, res *interp.Result) {
	outcome := obs.OutcomeClean
	switch {
	case res == nil:
	case res.Err != nil:
		outcome = obs.OutcomeFault
	case res.Violation != nil:
		outcome = obs.OutcomeDetected
	}
	e.flight.Finish(tr, outcome)
}

// planFor resolves the fault-injection plan for one program: the explicit
// per-case lookup when configured, the seeded schedule otherwise, and the
// empty plan when fault mode is off.
func (e *Engine) planFor(p *prog.Program) faultinject.Plan {
	if e.opts.FaultPlanFor != nil {
		return e.opts.FaultPlanFor(p.Fingerprint())
	}
	if e.opts.FaultSeed != 0 {
		fp := p.Fingerprint()
		return faultinject.Schedule(e.opts.FaultSeed, binary.LittleEndian.Uint64(fp[:8]))
	}
	return faultinject.Plan{}
}

// NewMachine instruments p (cached) and prepares a machine on a fresh
// sanitizer runtime. Call Release when done with it so pooled resources
// return to the pool and, with a flight recorder armed, the machine's trace
// is recorded; forgetting Release costs pool misses and the trace.
func (e *Engine) NewMachine(p *prog.Program) (*Machine, error) {
	tr := e.startTrace(p)
	m, err := e.newMachine(p, machineConfig{fresh: e.opts.FreshRuntime, trace: tr})
	if err != nil {
		return nil, err
	}
	m.ownTrace = tr != nil
	return m, nil
}

// machineConfig is the full construction policy for one machine. The zero
// value is the ordinary pooled path under the engine's own fault policy.
type machineConfig struct {
	// fresh builds on never-pooled runtime and resources (FreshRuntime mode
	// and the fault-retry path, which must rule out pool-state corruption).
	fresh bool
	// plan, when non-nil, overrides the engine's fault policy (FaultPlanFor /
	// FaultSeed) with an explicit per-run plan — the serving chaos mode's
	// per-request injection.
	plan *faultinject.Plan
	// bypassCache instruments inline without consulting the cache, modelling
	// a cache-fill failure.
	bypassCache bool
	// trace, when set, receives the machine's instrument/run/reset spans.
	trace *obs.RequestTrace
}

// newMachine builds a machine under an explicit construction policy.
func (e *Engine) newMachine(p *prog.Program, mc machineConfig) (*Machine, error) {
	var t0 time.Time
	if mc.trace != nil {
		t0 = time.Now()
	}
	fresh := mc.fresh
	var ip *prog.Program
	if mc.bypassCache {
		e.cacheBypasses.Add(1)
		ip = e.apply(p)
	} else {
		ip = e.Instrument(p)
	}
	var (
		san      rt.Sanitizer
		res      *interp.Resources
		recycled bool
		err      error
	)
	if fresh {
		san, err = e.newSanitizer()
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		res, err = interp.NewResources(e.interpOpts.AddrBits)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	} else {
		var sanPooled, resPooled bool
		san, sanPooled, err = e.acquireSanitizer()
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		res, resPooled, err = e.acquire()
		if err != nil {
			e.releaseSanitizer(san)
			return nil, fmt.Errorf("engine: %w", err)
		}
		recycled = sanPooled || resPooled
	}
	m := &Machine{eng: e, san: san, res: res, fresh: fresh, recycled: recycled, tr: mc.trace}
	plan := e.planFor(p)
	if mc.plan != nil {
		plan = *mc.plan
	}
	if !plan.Zero() {
		m.inj = faultinject.New(plan)
		if plan.MetatableCap > 0 {
			if c, ok := san.Runtime.(rt.MetaTableClamper); ok {
				c.ClampMetaTable(plan.MetatableCap)
			}
		}
		// The event hooks are armed in Run, not here: machine construction
		// (global init writes pages through the same space) is harness setup,
		// and injected faults target the program's own execution.
	}
	inner, err := interp.NewOn(res, ip, san, e.interpOpts)
	if err != nil {
		if !fresh {
			e.release(res) // Reset also clears the fault hooks
			e.releaseSanitizer(san)
		}
		return nil, fmt.Errorf("engine: %w", err)
	}
	m.inner = inner
	if m.tr != nil {
		// Construction is where instrumentation happens (cached or fresh),
		// so the span covers the whole lookup-or-instrument phase.
		m.tr.Span("instrument", t0, time.Since(t0))
	}
	return m, nil
}

// Feed queues input payloads for the program's fgets/recv calls.
func (m *Machine) Feed(payloads ...[]byte) { m.inner.Feed(payloads...) }

// Run executes the program to completion or abort, recording execute time
// and run counts in the engine's stats. Panics from the interpreter or the
// sanitizer runtime are recovered, and budget exhaustions classified, into a
// structured FaultOutcome in the result's Err — one hostile case can neither
// kill the process nor poison the pools (a panicked machine's runtime and
// resources are dropped at Release instead of recycled).
func (m *Machine) Run() *interp.Result {
	e := m.eng
	if m.inj != nil {
		m.res.Heap.SetFaultHook(m.inj.OnMalloc)
		m.res.Space.SetFaultHook(m.inj.OnPageMap)
	}
	start := time.Now()
	e.noteStart(start)
	res := m.runGuarded()
	end := time.Now()
	dur := end.Sub(start)
	e.executeNS.Add(dur.Nanoseconds())
	e.noteEnd(end)
	e.runs.Add(1)
	if m.tr != nil {
		m.tr.Span("run", start, dur)
		m.result = res
	}
	if e.runDurUS != nil {
		e.runDurUS.Observe(dur.Microseconds())
		e.runChecks.Observe(res.Stats.ChecksExecuted)
	}
	m.classifyFault(res)
	return res
}

// runGuarded executes the inner machine under the per-case sandbox: a
// cancellable wall-clock watchdog and a panic recovery that converts a
// main-thread panic into a PanicError result (parallel-region panics are
// already recovered inside the interpreter).
func (m *Machine) runGuarded() (res *interp.Result) {
	if wb := m.eng.opts.WallBudget; wb > 0 {
		watchdog := time.AfterFunc(wb, func() { m.inner.Interrupt(interp.ErrWallBudget) })
		defer watchdog.Stop()
	}
	defer func() {
		if v := recover(); v != nil {
			res = &interp.Result{Err: &interp.PanicError{
				Value: fmt.Sprint(v),
				Stack: string(debug.Stack()),
			}}
		}
	}()
	return m.inner.Run()
}

// classifyFault rewrites harness-level failure causes in res into a
// FaultOutcome, folds fault-injection and degradation counters into the
// result stats, and updates the engine's fault accounting.
func (m *Machine) classifyFault(res *interp.Result) {
	e := m.eng
	if m.inj != nil {
		res.Stats.InjectedFaults = m.inj.Triggered()
		e.injectedFaults.Add(res.Stats.InjectedFaults)
	}
	if res.Stats.DegradedAllocs > 0 {
		e.degradedAllocs.Add(res.Stats.DegradedAllocs)
	}
	if s := &res.Stats; s.GenerationWraps|s.IndexSpills|s.QuarantineEvictions|s.QuarantineFlushes != 0 {
		e.generationWraps.Add(s.GenerationWraps)
		e.indexSpills.Add(s.IndexSpills)
		e.quarantineEvictions.Add(s.QuarantineEvictions)
		e.quarantineFlushes.Add(s.QuarantineFlushes)
	}
	if res.Err == nil {
		return
	}
	var fo *FaultOutcome
	switch {
	case errors.Is(res.Err, interp.ErrInstructionBudget):
		// Step and heap budgets trigger on deterministic program state, so
		// no fresh-runtime retry is needed to attribute them.
		fo = &FaultOutcome{Class: FaultStepBudget, Deterministic: true, Err: res.Err}
	case errors.Is(res.Err, interp.ErrWallBudget):
		fo = &FaultOutcome{Class: FaultWallBudget, Err: res.Err}
	case errors.Is(res.Err, interp.ErrHeapBudget):
		fo = &FaultOutcome{Class: FaultHeapBudget, Deterministic: true, Err: res.Err}
	default:
		var pe *interp.PanicError
		if errors.As(res.Err, &pe) {
			m.faulted = true
			fo = &FaultOutcome{Class: FaultPanic, PanicValue: pe.Value, Stack: pe.Stack, Err: pe}
			if !m.recycled {
				// First occurrence was already on a never-pooled runtime:
				// pool corruption is ruled out without a retry.
				fo.Deterministic = true
			}
		}
	}
	if fo == nil {
		return
	}
	e.faults.Add(1)
	if fo.Deterministic {
		e.faultsDeterministic.Add(1)
	}
	res.Err = fo
}

// Output returns lines the program printed. Valid after Release.
func (m *Machine) Output() []string { return m.inner.Output() }

// Runtime returns the machine's sanitizer runtime for white-box inspection.
func (m *Machine) Runtime() rt.Runtime { return m.san.Runtime }

// Release recycles the machine's resources — and, for resettable runtimes,
// its sanitizer — into the engine pools, and closes the machine's trace
// with a reset span. The machine must not Run, touch simulated memory, or
// inspect its Runtime afterwards; Output and the last Result remain valid.
// Release is idempotent, and pooling is a no-op in FreshRuntime mode. Fault
// isolation: a machine through which a panic unwound may hold a runtime
// with a poisoned lock or half-updated metadata, so its runtime and
// resources are dropped for the GC instead of pooled.
func (m *Machine) Release() {
	if m.released || m.res == nil {
		return
	}
	m.released = true
	res := m.res
	m.res = nil
	var start time.Time
	if m.tr != nil {
		start = time.Now()
	}
	if !m.fresh && !m.faulted {
		m.eng.release(res) // Reset also clears any fault hooks
		m.eng.releaseSanitizer(m.san)
	}
	if m.tr != nil {
		m.tr.Span("reset", start, time.Since(start))
		if m.ownTrace {
			m.eng.finishTrace(m.tr, m.result)
		}
	}
}

// Run is the one-shot convenience: instrument (cached), execute on pooled
// resources, release, return the result.
//
// When a run panics on a machine whose runtime or resources came from a
// pool, the fault is ambiguous: the case may be hostile, or an earlier case
// may have corrupted the pooled state. Run retries such a case exactly once
// on a fresh, never-pooled machine: a reproduced panic is classified
// deterministic (the case's own fault), a vanished one as pool-suspect.
// Either way the retry's result is returned, and both verdicts land in
// Stats. Budget faults skip the retry — their triggers cannot depend on pool
// state.
func (e *Engine) Run(p *prog.Program, inputs ...[]byte) (*interp.Result, error) {
	return e.run(p, machineConfig{fresh: e.opts.FreshRuntime}, true, inputs)
}

// PlannedRun configures one RunPlanned execution.
type PlannedRun struct {
	// Plan is the explicit fault-injection schedule armed on the machine.
	// The zero plan injects nothing but still overrides the engine's own
	// fault policy (FaultSeed / FaultPlanFor are not consulted).
	Plan faultinject.Plan
	// BypassCache makes instrumentation skip the cache entirely — the
	// cache-fill-failure chaos mode. The inline result is not cached.
	BypassCache bool
	// Trace, when set, receives instrument/run/reset sub-spans for this
	// execution — the request-lifecycle tracing of the serving layer. The
	// caller owns it: the engine adds spans but never finishes it. Nil
	// leaves tracing to the engine (its own trace when Obs.Flight is set).
	Trace *obs.RequestTrace
}

// RunPlanned executes p under an explicit per-run fault plan. When the
// caller armed nothing (zero Plan, no BypassCache) it behaves like Run,
// including the single fresh-machine retry of a panic on recycled state.
// When the caller armed an injection it never auto-retries: callers that
// inject faults on purpose (the serving layer's chaos mode) own the retry
// policy themselves, and a retry under the same plan would just reproduce
// the injection. Panicked machines are still dropped from the pools.
func (e *Engine) RunPlanned(p *prog.Program, pr PlannedRun, inputs ...[]byte) (*interp.Result, error) {
	mc := machineConfig{fresh: e.opts.FreshRuntime, plan: &pr.Plan, bypassCache: pr.BypassCache, trace: pr.Trace}
	return e.run(p, mc, pr.Plan.Zero() && !pr.BypassCache, inputs)
}

// run is the one execution body behind Run and RunPlanned: build the
// machine, feed, run, release, and — when retry is set — repeat once on a
// fresh machine after a panic on recycled state. Without a caller trace and
// with a recorder armed, the execution gets one engine-owned trace, retry
// included, recorded once the final result is known.
func (e *Engine) run(p *prog.Program, mc machineConfig, retry bool, inputs [][]byte) (res *interp.Result, err error) {
	if mc.trace == nil && e.flight != nil {
		tr := e.startTrace(p)
		mc.trace = tr
		defer func() {
			if err == nil {
				e.finishTrace(tr, res)
			}
		}()
	}
	res, recycled, err := e.runOnce(p, mc, inputs)
	if err != nil {
		return nil, err
	}
	fo := AsFault(res.Err)
	if !retry || fo == nil || fo.Class != FaultPanic || !recycled {
		return res, nil
	}
	e.faultRetries.Add(1)
	mc.fresh = true
	res2, _, err := e.runOnce(p, mc, inputs)
	if err != nil {
		return res, nil // cannot retry; keep the unattributed fault
	}
	if fo2 := AsFault(res2.Err); fo2 != nil {
		// classifyFault already marked a reproduced panic deterministic
		// (the retry machine is never recycled).
		fo2.Retried = true
		return res2, nil
	}
	// The fault vanished on a fresh runtime: the recycled state is suspect.
	e.faultsPoolSuspect.Add(1)
	return res2, nil
}

// runOnce is one instrument→feed→run→release pass. It reports whether the
// machine ran on recycled state.
func (e *Engine) runOnce(p *prog.Program, mc machineConfig, inputs [][]byte) (*interp.Result, bool, error) {
	m, err := e.newMachine(p, mc)
	if err != nil {
		return nil, false, err
	}
	m.Feed(inputs...)
	res := m.Run()
	m.Release()
	return res, m.recycled, nil
}

// ForEach runs fn(0..n-1) across the engine's worker pool. All items run
// even when some fail; the error for the lowest-indexed failing item is
// returned, making error reporting deterministic under concurrency. The
// Progress callback, when configured, fires every ProgressEvery completions.
func (e *Engine) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := e.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	every := e.opts.ProgressEvery
	if every <= 0 {
		every = 100
	}
	var (
		next, done atomic.Int64
		wg         sync.WaitGroup
		errMu      sync.Mutex
		firstErr   error
		errIdx     = -1
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errMu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, firstErr = i, err
					}
					errMu.Unlock()
				}
				if d := int(done.Add(1)); e.opts.Progress != nil && (d%every == 0 || d == n) {
					e.opts.Progress(d, n)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// noteStart records the wall-clock start of the engine's first run.
func (e *Engine) noteStart(t time.Time) {
	e.wallMu.Lock()
	if e.firstStart.IsZero() {
		e.firstStart = t
	}
	e.wallMu.Unlock()
}

// noteEnd advances the wall-clock end of the engine's latest run.
func (e *Engine) noteEnd(t time.Time) {
	e.wallMu.Lock()
	if t.After(e.lastEnd) {
		e.lastEnd = t
	}
	e.wallMu.Unlock()
}

// Stats is a snapshot of the engine's aggregate counters.
type Stats struct {
	// Runs is the number of completed machine runs.
	Runs int64
	// CacheHits and CacheMisses count run-path Instrument requests served
	// from / added to the instrumentation cache. Accounting is per request
	// — a request that waited on another worker's in-flight instrumentation
	// of the same fingerprint is a hit; the one that performed it is a miss
	// — so the rate is comparable whether the cache is private or shared,
	// sharded or not.
	CacheHits   int64
	CacheMisses int64
	// CachePrefills counts Preinstrument warm fills (not part of the hit
	// rate: they happen before the run loop by design).
	CachePrefills int64
	// CacheOverflows counts requests that found their cache shard at
	// capacity and instrumented inline without caching.
	CacheOverflows int64
	// CacheBypasses counts RunPlanned executions that skipped the cache on
	// purpose (injected cache-fill failures). Like prefills and overflows
	// they are kept out of the hit rate, which stays a run-path measure.
	CacheBypasses int64
	// InstrumentTime is total time spent instrumenting (cache misses only).
	InstrumentTime time.Duration
	// ExecuteTime is total machine-run time summed over runs (can exceed
	// Wall under concurrency).
	ExecuteTime time.Duration
	// Wall is the wall-clock span from the first run's start to the latest
	// run's end.
	Wall time.Duration
	// Faults counts runs that ended in a FaultOutcome (panic or budget),
	// including retry runs.
	Faults int64
	// FaultsDeterministic counts faults attributed to the case itself: budget
	// exhaustions and panics that occurred (or reproduced) on a never-pooled
	// runtime.
	FaultsDeterministic int64
	// FaultsPoolSuspect counts panics on recycled state that vanished on the
	// fresh-runtime retry — evidence of pool-state corruption.
	FaultsPoolSuspect int64
	// FaultRetries counts fresh-runtime retry runs triggered by panics on
	// recycled state.
	FaultRetries int64
	// DegradedAllocs counts allocations that lost metadata protection to
	// exhaustion across all runs (the CECSan entry-0 graceful degradation).
	DegradedAllocs int64
	// InjectedFaults counts fault-injection trigger firings across all runs;
	// 0 outside fault mode.
	InjectedFaults int64
	// Temporal-hardening degradation totals aggregated across all runs
	// (rt.TemporalStats); 0 for default profiles.
	GenerationWraps     int64
	IndexSpills         int64
	QuarantineEvictions int64
	QuarantineFlushes   int64
}

// CacheHitRate returns the fraction of Instrument requests served from
// cache, in [0,1]; 0 when nothing was instrumented.
func (s Stats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// CasesPerSec returns completed runs per wall-clock second.
func (s Stats) CasesPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Runs) / s.Wall.Seconds()
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Runs:                e.runs.Load(),
		CacheHits:           e.cacheHits.Load(),
		CacheMisses:         e.cacheMisses.Load(),
		CachePrefills:       e.cachePrefills.Load(),
		CacheOverflows:      e.cacheOverflows.Load(),
		CacheBypasses:       e.cacheBypasses.Load(),
		InstrumentTime:      time.Duration(e.instrumentNS.Load()),
		ExecuteTime:         time.Duration(e.executeNS.Load()),
		Faults:              e.faults.Load(),
		FaultsDeterministic: e.faultsDeterministic.Load(),
		FaultsPoolSuspect:   e.faultsPoolSuspect.Load(),
		FaultRetries:        e.faultRetries.Load(),
		DegradedAllocs:      e.degradedAllocs.Load(),
		InjectedFaults:      e.injectedFaults.Load(),
		GenerationWraps:     e.generationWraps.Load(),
		IndexSpills:         e.indexSpills.Load(),
		QuarantineEvictions: e.quarantineEvictions.Load(),
		QuarantineFlushes:   e.quarantineFlushes.Load(),
	}
	e.wallMu.Lock()
	start, end := e.firstStart, e.lastEnd
	e.wallMu.Unlock()
	if !start.IsZero() && end.After(start) {
		s.Wall = end.Sub(start)
	}
	return s
}

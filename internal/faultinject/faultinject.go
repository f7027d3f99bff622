// Package faultinject provides deterministic, seeded fault schedules for the
// execution stack: heap-allocation failures, metadata-table capacity clamps
// and page-map (chunk materialization) failures.
//
// The paper's robustness story (§II.E, §V) is that CECSan degrades instead of
// aborting when its metadata table fills: allocations fall back to the
// reserved entry 0 and keep full functionality at the cost of coverage. That
// path — like an allocator returning NULL, or mmap failing under memory
// pressure — is never exercised by ordinary workloads, whose table occupancy
// sits orders of magnitude below 2^17 entries. This package makes those
// conditions reproducible: a Plan says *which* resource fails *when*, an
// Injector enforces it through hooks in internal/alloc and internal/mem, and
// Schedule derives a plan deterministically from (fault seed, program key) so
// an entire fuzzing campaign under resource pressure is byte-reproducible
// regardless of worker count.
package faultinject

import (
	"errors"
	"sync/atomic"

	"cecsan/internal/splitmix"
)

// ErrInjectedOOM is the typed error an injected allocation failure returns.
// It surfaces through rt.Runtime.Malloc like a genuine alloc.ErrOutOfMemory,
// so callers exercise exactly the exhaustion path, but remains
// distinguishable with errors.Is for classification.
var ErrInjectedOOM = errors.New("faultinject: injected allocation failure")

// PanicValue is the payload of an injected panic (Plan.MallocPanicNth). Tests
// use it to assert that a recovered fault originated here and not in a real
// runtime bug.
const PanicValue = "faultinject: injected runtime panic"

// Plan is one case's fault schedule. The zero value injects nothing. Counts
// are 1-based: MallocFailNth == 1 fails the first heap allocation.
type Plan struct {
	// MallocFailNth makes the nth heap allocation return ErrInjectedOOM
	// (0 = never).
	MallocFailNth int64
	// MallocFailBurst widens the allocation failure into a burst: the
	// MallocFailNth-th through (MallocFailNth+MallocFailBurst-1)-th
	// allocations all fail, modelling a sustained memory-pressure episode
	// rather than a single unlucky call. 0 and 1 both mean a single
	// failure; the field is meaningless without MallocFailNth.
	MallocFailBurst int64
	// MallocPanicNth makes the nth heap allocation panic with PanicValue
	// (0 = never). Schedule never sets it; it exists so tests and the
	// serving chaos mode can exercise the engine's panic recovery without
	// planting a bug in a runtime.
	MallocPanicNth int64
	// MetatableCap clamps the metadata table to this many allocatable
	// entries (excluding the reserved entry 0), forcing the §V exhaustion
	// fallback after that many live tagged objects (0 = no clamp).
	MetatableCap uint64
	// PageMapFailNth makes the nth chunk materialization in the simulated
	// address space fail, modelling mmap failure under memory pressure
	// (0 = never).
	PageMapFailNth int64
}

// Zero reports whether the plan injects nothing.
func (p Plan) Zero() bool { return p == Plan{} }

// Schedule derives the fault plan for one case from the campaign fault seed
// and a per-case key (the engine uses the program fingerprint). The mapping
// is pure: the same (faultSeed, key) pair always yields the same plan, which
// is what makes fault-injected campaigns deterministic under any worker
// count. A faultSeed of 0 disables injection entirely, and roughly a quarter
// of cases get an empty plan anyway — those are the in-campaign controls that
// must still match their oracles exactly.
func Schedule(faultSeed, key uint64) Plan {
	if faultSeed == 0 {
		return Plan{}
	}
	// Each (seed, key) pair positions its own SplitMix64 stream, so no
	// state is shared between cases.
	x := splitmix.Rand{State: faultSeed ^ (key * splitmix.Golden)}
	r := x.Next()
	switch r & 7 {
	case 0, 1:
		return Plan{MallocFailNth: 1 + int64(x.Next()%8)}
	case 2, 3:
		return Plan{MetatableCap: 1 + x.Next()%24}
	case 4, 5:
		return Plan{PageMapFailNth: 1 + int64(x.Next()%64)}
	case 6:
		// Combined pressure: a clamped table and a later allocation failure.
		return Plan{
			MetatableCap:  1 + x.Next()%24,
			MallocFailNth: 4 + int64(x.Next()%8),
		}
	default:
		return Plan{} // control case: no injection
	}
}

// Injector enforces one Plan over one machine run. Its hooks are installed by
// the engine into the machine's heap and address space; counters are atomic
// because parallel regions allocate and fault pages concurrently.
type Injector struct {
	plan      Plan
	mallocs   atomic.Int64
	pages     atomic.Int64
	triggered atomic.Int64
}

// New returns an injector enforcing plan.
func New(plan Plan) *Injector {
	return &Injector{plan: plan}
}

// Plan returns the schedule the injector enforces.
func (in *Injector) Plan() Plan { return in.plan }

// OnMalloc is the heap-allocation hook: called before each allocation, it
// returns ErrInjectedOOM on the scheduled failure (or panics on the scheduled
// panic). Any other call returns nil.
func (in *Injector) OnMalloc() error {
	n := in.mallocs.Add(1)
	if in.plan.MallocPanicNth != 0 && n == in.plan.MallocPanicNth {
		in.triggered.Add(1)
		panic(PanicValue)
	}
	if in.plan.MallocFailNth != 0 {
		burst := in.plan.MallocFailBurst
		if burst < 1 {
			burst = 1
		}
		if n >= in.plan.MallocFailNth && n < in.plan.MallocFailNth+burst {
			in.triggered.Add(1)
			return ErrInjectedOOM
		}
	}
	return nil
}

// OnPageMap is the chunk-materialization hook: it reports true when the
// scheduled page-map failure fires, making the space return an injected
// fault instead of backing the page.
func (in *Injector) OnPageMap() bool {
	n := in.pages.Add(1)
	if in.plan.PageMapFailNth != 0 && n == in.plan.PageMapFailNth {
		in.triggered.Add(1)
		return true
	}
	return false
}

// Triggered returns how many scheduled faults actually fired during the run.
// A plan can trigger zero times (the program never reached the nth event);
// the classifier uses this to tell pressure-affected runs from controls.
func (in *Injector) Triggered() int64 { return in.triggered.Load() }

// ChaosPlan is one request's campaign-level chaos schedule: what the serving
// layer injects against itself while processing that request. Unlike Plan —
// which targets a single machine run and is keyed by program fingerprint —
// a ChaosPlan is keyed by the request's position in the deterministic
// traffic stream, so the same (chaos seed, request index) pair always maps
// to the same injection whatever the worker count or program mix.
type ChaosPlan struct {
	// Run is the machine-level fault plan armed for the request's first
	// execution attempt (worker panic or malloc OOM burst). Retries run
	// with the plan dropped, the way a real transient fault clears.
	Run Plan
	// SlowdownUS stalls the worker this many microseconds before the run —
	// the nth-request slow-down that drives queue delay into the admission
	// controller.
	SlowdownUS int64
	// CacheBypass makes the request's instrumentation-cache fill "fail":
	// the engine instruments inline without caching, paying the cold-path
	// cost a real cache eviction or fill error would impose.
	CacheBypass bool
}

// Zero reports whether the chaos plan injects nothing.
func (c ChaosPlan) Zero() bool { return c == ChaosPlan{} }

// ChaosPhase is the storm/calm alternation period of the chaos schedule, in
// requests: indices [0, ChaosPhase) of every 2*ChaosPhase-long cycle are a
// fault storm, the rest are calm. The calm half is what lets circuit
// breakers close and the degradation ladder step back up, so recovery paths
// are exercised deterministically instead of only under permanent pressure.
const ChaosPhase = 192

// ChaosSchedule derives the chaos plan for the reqIndex-th request of a
// campaign from the campaign chaos seed. Like Schedule, the mapping is pure:
// byte-deterministic accounting at any worker count falls out of keying by
// stream position. A chaosSeed of 0 disables chaos entirely. During storm
// phases roughly half the requests draw an injection (panic, OOM burst,
// slow-down or cache bypass); calm phases draw nothing.
func ChaosSchedule(chaosSeed, reqIndex uint64) ChaosPlan {
	if chaosSeed == 0 {
		return ChaosPlan{}
	}
	if reqIndex%(2*ChaosPhase) >= ChaosPhase {
		return ChaosPlan{} // calm half-cycle: let the resilience machinery recover
	}
	x := splitmix.Rand{State: chaosSeed ^ ((reqIndex + 1) * splitmix.Golden)}
	r := x.Next()
	switch r & 7 {
	case 0, 1:
		// Seeded worker panic: the nth allocation of the request's run
		// panics, exercising the engine's recovery and the retry policy.
		return ChaosPlan{Run: Plan{MallocPanicNth: 1 + int64(x.Next()%4)}}
	case 2, 3:
		// Injected malloc OOM burst: several consecutive allocations fail.
		return ChaosPlan{Run: Plan{
			MallocFailNth:   1 + int64(x.Next()%6),
			MallocFailBurst: 1 + int64(x.Next()%4),
		}}
	case 4:
		// Nth-request slow-down: 200µs–2ms of injected queue pressure.
		return ChaosPlan{SlowdownUS: 200 + int64(x.Next()%1800)}
	case 5:
		// Instrumentation cache-fill failure.
		return ChaosPlan{CacheBypass: true}
	default:
		return ChaosPlan{} // in-storm control: no injection
	}
}

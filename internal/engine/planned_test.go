package engine

import (
	"errors"
	"testing"

	"cecsan/internal/faultinject"
	"cecsan/internal/rt"
	"cecsan/internal/sanitizers"
	"cecsan/prog"
)

// RunPlanned must execute under exactly the plan the caller hands it —
// overriding the engine's own FaultPlanFor policy in both directions: an
// explicit plan fires even when the policy would inject nothing, and a zero
// plan suppresses a policy that would.
func TestRunPlannedOverridesFaultPolicy(t *testing.T) {
	p := compileSrc(t, normalSrc)
	fp := p.Fingerprint()

	eng, err := New(sanitizers.CECSan, Options{
		MaxInstructions: 100_000,
		FaultPlanFor: func(got prog.Fingerprint) faultinject.Plan {
			if got == fp {
				return faultinject.Plan{MallocFailNth: 1}
			}
			return faultinject.Plan{}
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// Zero plan: the policy's injection must NOT fire.
	res, err := eng.RunPlanned(p, PlannedRun{})
	if err != nil {
		t.Fatalf("RunPlanned(zero): %v", err)
	}
	if res.Err != nil || res.Violation != nil {
		t.Fatalf("zero-plan run not clean: err=%v violation=%v", res.Err, res.Violation)
	}

	// Explicit plan on an engine whose policy injects nothing for it.
	clean, err := New(sanitizers.CECSan, Options{MaxInstructions: 100_000})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err = clean.RunPlanned(p, PlannedRun{Plan: faultinject.Plan{MallocFailNth: 1}})
	if err != nil {
		t.Fatalf("RunPlanned(oom): %v", err)
	}
	if !errors.Is(res.Err, faultinject.ErrInjectedOOM) {
		t.Fatalf("planned OOM run err = %v, want ErrInjectedOOM", res.Err)
	}
	if res.Stats.InjectedFaults == 0 {
		t.Fatal("planned OOM run recorded no injected faults")
	}
}

// An injected panic under RunPlanned surfaces as a FaultPanic outcome with no
// automatic fresh-runtime retry: the serving layer owns the retry policy, so
// the engine must hand the fault straight back.
func TestRunPlannedPanicNoAutoRetry(t *testing.T) {
	p := compileSrc(t, normalSrc)
	eng, err := New(sanitizers.CECSan, Options{MaxInstructions: 100_000})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// Warm the recycled-resources pool so an auto-retry would be observable.
	if _, err := eng.Run(p); err != nil {
		t.Fatalf("warm Run: %v", err)
	}

	res, err := eng.RunPlanned(p, PlannedRun{Plan: faultinject.Plan{MallocPanicNth: 1}})
	if err != nil {
		t.Fatalf("RunPlanned: %v", err)
	}
	fo := AsFault(res.Err)
	if fo == nil || fo.Class != FaultPanic {
		t.Fatalf("planned panic outcome = %v, want FaultPanic", res.Err)
	}
	if got := eng.Stats().FaultRetries; got != 0 {
		t.Fatalf("FaultRetries = %d, want 0 (RunPlanned must not auto-retry)", got)
	}
}

// poisonedRuntime stands in for a pooled runtime left corrupted by an
// earlier case: every allocation through it panics.
type poisonedRuntime struct{ rt.Runtime }

func (poisonedRuntime) Malloc(int64) (uint64, rt.PtrMeta, error) {
	panic("poisoned pooled runtime")
}

// A zero-plan RunPlanned arms nothing, so it must keep Run's pool-corruption
// recovery: a panic on a recycled runtime is retried once on a fresh machine,
// the clean retry result is returned, and the verdict is pool-suspect.
func TestRunPlannedZeroPlanRetriesPoolSuspect(t *testing.T) {
	p := compileSrc(t, normalSrc)
	eng, err := New(sanitizers.CECSan, Options{MaxInstructions: 100_000})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	good, err := eng.newSanitizer()
	if err != nil {
		t.Fatalf("newSanitizer: %v", err)
	}
	eng.sanPool.put(rt.Sanitizer{Runtime: poisonedRuntime{good.Runtime}, Profile: good.Profile})

	res, err := eng.RunPlanned(p, PlannedRun{})
	if err != nil {
		t.Fatalf("RunPlanned: %v", err)
	}
	if res.Err != nil || res.Violation != nil {
		t.Fatalf("retry result not clean: err=%v violation=%v", res.Err, res.Violation)
	}
	if res.Ret != 7 {
		t.Fatalf("Ret = %d, want 7", res.Ret)
	}
	s := eng.Stats()
	if s.FaultRetries != 1 {
		t.Errorf("Stats.FaultRetries = %d, want 1", s.FaultRetries)
	}
	if s.FaultsPoolSuspect != 1 {
		t.Errorf("Stats.FaultsPoolSuspect = %d, want 1", s.FaultsPoolSuspect)
	}
}

// BypassCache instruments inline without touching the cache: the bypass
// counter moves, the hit/miss accounting does not, and the result matches a
// cached run.
func TestRunPlannedCacheBypass(t *testing.T) {
	p := compileSrc(t, normalSrc)
	eng, err := New(sanitizers.CECSan, Options{MaxInstructions: 100_000})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	want, err := eng.Run(p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	before := eng.Stats()

	res, err := eng.RunPlanned(p, PlannedRun{BypassCache: true})
	if err != nil {
		t.Fatalf("RunPlanned: %v", err)
	}
	if res.Err != nil || res.Violation != nil {
		t.Fatalf("bypass run not clean: err=%v violation=%v", res.Err, res.Violation)
	}
	if res.Ret != want.Ret {
		t.Fatalf("bypass run Ret = %d, cached run Ret = %d", res.Ret, want.Ret)
	}

	after := eng.Stats()
	if after.CacheBypasses != before.CacheBypasses+1 {
		t.Fatalf("CacheBypasses %d -> %d, want +1", before.CacheBypasses, after.CacheBypasses)
	}
	if after.CacheHits != before.CacheHits || after.CacheMisses != before.CacheMisses {
		t.Fatalf("bypass run moved hit/miss accounting: hits %d->%d misses %d->%d",
			before.CacheHits, after.CacheHits, before.CacheMisses, after.CacheMisses)
	}
}

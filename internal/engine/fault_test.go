package engine

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cecsan/csrc"
	"cecsan/internal/faultinject"
	"cecsan/internal/instrument"
	"cecsan/internal/interp"
	"cecsan/internal/sanitizers"
	"cecsan/prog"
)

func compileSrc(t *testing.T, src string) *prog.Program {
	t.Helper()
	p, err := csrc.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

const normalSrc = `func main() {
	var p = malloc(64);
	p[0] = 7;
	var s = p[0];
	free(p);
	return s;
}`

const loopSrc = `func main() {
	var x = 1;
	while (x) { x = x + 1; }
	return x;
}`

// TestFaultIsolationBatch is the headline acceptance scenario: a 50-case
// batch where one case panics inside the runtime (injected) and one spins
// forever. All 50 must come back classified — 48 clean, one FaultPanic, one
// FaultStepBudget — and the engine must stay healthy afterwards.
func TestFaultIsolationBatch(t *testing.T) {
	normal := compileSrc(t, normalSrc)
	panicky := compileSrc(t, `func main() {
		var a = malloc(32);
		var b = malloc(32);
		a[0] = 1;
		return b[0];
	}`)
	looper := compileSrc(t, loopSrc)
	panicFP := panicky.Fingerprint()

	eng, err := New(sanitizers.CECSan, Options{
		MaxInstructions: 200_000,
		FaultPlanFor: func(fp prog.Fingerprint) faultinject.Plan {
			if fp == panicFP {
				return faultinject.Plan{MallocPanicNth: 2}
			}
			return faultinject.Plan{}
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	const n = 50
	const panicIdx, loopIdx = 7, 23
	results := make([]*interp.Result, n)
	err = eng.ForEach(n, func(i int) error {
		p := normal
		switch i {
		case panicIdx:
			p = panicky
		case loopIdx:
			p = looper
		}
		res, rerr := eng.Run(p)
		if rerr != nil {
			return rerr
		}
		results[i] = res
		return nil
	})
	if err != nil {
		t.Fatalf("ForEach: %v", err)
	}

	var clean, panics, stepBudget int
	for i, res := range results {
		if res == nil {
			t.Fatalf("case %d: no result", i)
		}
		fo := AsFault(res.Err)
		switch {
		case fo == nil && res.Err == nil && res.Violation == nil:
			clean++
		case fo != nil && fo.Class == FaultPanic:
			panics++
			if i != panicIdx {
				t.Errorf("case %d: unexpected panic fault %v", i, fo)
			}
			if !strings.Contains(fo.PanicValue, faultinject.PanicValue) {
				t.Errorf("panic value = %q, want injected marker", fo.PanicValue)
			}
			if !fo.Deterministic {
				t.Errorf("injected panic not classified deterministic: %+v", fo)
			}
		case fo != nil && fo.Class == FaultStepBudget:
			stepBudget++
			if i != loopIdx {
				t.Errorf("case %d: unexpected step-budget fault", i)
			}
			if !fo.Deterministic {
				t.Errorf("step-budget fault not deterministic: %+v", fo)
			}
		default:
			t.Errorf("case %d: unclassified outcome err=%v violation=%v", i, res.Err, res.Violation)
		}
	}
	if clean != n-2 || panics != 1 || stepBudget != 1 {
		t.Fatalf("classified %d clean, %d panic, %d step-budget; want %d/1/1",
			clean, panics, stepBudget, n-2)
	}

	s := eng.Stats()
	if s.Faults < 2 {
		t.Errorf("Stats.Faults = %d, want >= 2", s.Faults)
	}
	if s.FaultsDeterministic < 2 {
		t.Errorf("Stats.FaultsDeterministic = %d, want >= 2 (panic + step budget)", s.FaultsDeterministic)
	}
	if s.InjectedFaults < 1 {
		t.Errorf("Stats.InjectedFaults = %d, want >= 1", s.InjectedFaults)
	}

	// The pools survived the hostile cases: a fresh clean run still matches
	// the never-pooled pipeline.
	res, rerr := eng.Run(normal)
	if rerr != nil || res.Err != nil || res.Violation != nil {
		t.Fatalf("post-batch clean run: res=%+v err=%v", res, rerr)
	}
	if want := uncachedRun(t, sanitizers.CECSan, normal, nil); res.Ret != want.Ret {
		t.Fatalf("post-batch Ret = %d, want %d", res.Ret, want.Ret)
	}
}

// TestMetatableClampDegradation pins the §V graceful-degradation contract:
// with the table clamped to 4 entries, allocations 5 and 6 still succeed —
// untagged, validating through reserved entry 0 — loads and stores through
// them work, and the lost coverage is counted.
func TestMetatableClampDegradation(t *testing.T) {
	p := compileSrc(t, `func main() {
		var a = malloc(16);
		var b = malloc(16);
		var c = malloc(16);
		var d = malloc(16);
		var e = malloc(16);
		var f = malloc(16);
		a[0] = 1; b[0] = 1; c[0] = 1; d[0] = 1;
		e[0] = 7;
		f[0] = 35;
		return e[0] + f[0];
	}`)
	fp := p.Fingerprint()
	eng, err := New(sanitizers.CECSan, Options{
		FaultPlanFor: func(got prog.Fingerprint) faultinject.Plan {
			if got == fp {
				return faultinject.Plan{MetatableCap: 4}
			}
			return faultinject.Plan{}
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, rerr := eng.Run(p)
	if rerr != nil {
		t.Fatalf("Run: %v", rerr)
	}
	if res.Err != nil || res.Violation != nil {
		t.Fatalf("degraded run did not stay functional: err=%v violation=%v", res.Err, res.Violation)
	}
	if res.Ret != 42 {
		t.Fatalf("Ret = %d, want 42 (stores/loads through untagged pointers)", res.Ret)
	}
	if res.Stats.DegradedAllocs != 2 {
		t.Fatalf("Stats.DegradedAllocs = %d, want 2", res.Stats.DegradedAllocs)
	}
	if s := eng.Stats(); s.DegradedAllocs != 2 {
		t.Fatalf("engine Stats.DegradedAllocs = %d, want 2", s.DegradedAllocs)
	}
}

// TestFaultRetryPoolSuspect exercises the retry protocol's other verdict: a
// panic that fires on a recycled runtime but not on the fresh retry is
// attributed to pool state, and the retry's clean result is returned.
func TestFaultRetryPoolSuspect(t *testing.T) {
	warm := compileSrc(t, normalSrc)
	target := compileSrc(t, `func main() {
		var q = malloc(48);
		q[1] = 2;
		return q[1];
	}`)
	targetFP := target.Fingerprint()

	var fired atomic.Bool
	eng, err := New(sanitizers.CECSan, Options{
		FaultPlanFor: func(fp prog.Fingerprint) faultinject.Plan {
			if fp == targetFP && fired.CompareAndSwap(false, true) {
				return faultinject.Plan{MallocPanicNth: 1}
			}
			return faultinject.Plan{}
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// The warm case leaves its bundles on the free lists, so the target
	// case runs on recycled state.
	if _, err := eng.Run(warm); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	res, rerr := eng.Run(target)
	if rerr != nil {
		t.Fatalf("Run: %v", rerr)
	}
	if res.Err != nil || res.Violation != nil {
		t.Fatalf("retry result not clean: err=%v violation=%v", res.Err, res.Violation)
	}
	if res.Ret != 2 {
		t.Fatalf("Ret = %d, want 2", res.Ret)
	}
	s := eng.Stats()
	if s.FaultRetries != 1 {
		t.Errorf("Stats.FaultRetries = %d, want 1", s.FaultRetries)
	}
	if s.FaultsPoolSuspect != 1 {
		t.Errorf("Stats.FaultsPoolSuspect = %d, want 1", s.FaultsPoolSuspect)
	}
	if s.FaultsDeterministic != 0 {
		t.Errorf("Stats.FaultsDeterministic = %d, want 0", s.FaultsDeterministic)
	}
}

// TestFaultRetryReproduces pins the deterministic verdict: a panic that
// reproduces on the fresh retry is the case's own fault, marked Retried and
// Deterministic.
func TestFaultRetryReproduces(t *testing.T) {
	warm := compileSrc(t, normalSrc)
	target := compileSrc(t, `func main() {
		var q = malloc(48);
		q[2] = 3;
		return q[2];
	}`)
	targetFP := target.Fingerprint()
	eng, err := New(sanitizers.CECSan, Options{
		FaultPlanFor: func(fp prog.Fingerprint) faultinject.Plan {
			if fp == targetFP {
				return faultinject.Plan{MallocPanicNth: 1}
			}
			return faultinject.Plan{}
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := eng.Run(warm); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	res, rerr := eng.Run(target)
	if rerr != nil {
		t.Fatalf("Run: %v", rerr)
	}
	fo := AsFault(res.Err)
	if fo == nil || fo.Class != FaultPanic {
		t.Fatalf("err = %v, want FaultPanic outcome", res.Err)
	}
	if !fo.Retried || !fo.Deterministic {
		t.Fatalf("fault = %+v, want Retried and Deterministic", fo)
	}
	s := eng.Stats()
	if s.FaultRetries != 1 {
		t.Errorf("Stats.FaultRetries = %d, want 1", s.FaultRetries)
	}
	if s.FaultsPoolSuspect != 0 {
		t.Errorf("Stats.FaultsPoolSuspect = %d, want 0", s.FaultsPoolSuspect)
	}
	if s.FaultsDeterministic != 1 {
		t.Errorf("Stats.FaultsDeterministic = %d, want 1", s.FaultsDeterministic)
	}
}

// TestWallBudgetFault drives the watchdog: an unbounded loop under a small
// wall budget is interrupted and classified FaultWallBudget.
func TestWallBudgetFault(t *testing.T) {
	looper := compileSrc(t, loopSrc)
	eng, err := New(sanitizers.CECSan, Options{WallBudget: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, rerr := eng.Run(looper)
	if rerr != nil {
		t.Fatalf("Run: %v", rerr)
	}
	fo := AsFault(res.Err)
	if fo == nil || fo.Class != FaultWallBudget {
		t.Fatalf("err = %v, want FaultWallBudget outcome", res.Err)
	}
	if !errors.Is(res.Err, interp.ErrWallBudget) {
		t.Fatalf("fault does not unwrap to ErrWallBudget: %v", res.Err)
	}
}

// TestWallBudgetOnCondBrBackedge drives the watchdog into a loop whose only
// backedge is a conditional branch (the builder's loops close with an
// unconditional one): the interrupt must still surface as the wall-budget
// cause, not as a cross-thread abort.
func TestWallBudgetOnCondBrBackedge(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	one := f.Const(1)
	head := len(f.Fn().Code)
	x := f.Add(one, one)
	f.Fn().Code = append(f.Fn().Code, prog.Instr{Op: prog.OpCondBr, A: one, Dst: prog.NoReg, B: prog.NoReg, Imm: int64(head)})
	f.Ret(x)
	looper, err := pb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	eng, err := New(sanitizers.CECSan, Options{WallBudget: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, rerr := eng.Run(looper)
	if rerr != nil {
		t.Fatalf("Run: %v", rerr)
	}
	if !errors.Is(res.Err, interp.ErrWallBudget) {
		t.Fatalf("err = %v, want ErrWallBudget", res.Err)
	}
	if fo := AsFault(res.Err); fo == nil || fo.Class != FaultWallBudget {
		t.Fatalf("err = %v, want FaultWallBudget outcome", res.Err)
	}
}

// TestHeapBudgetFault bounds live simulated heap: a leak loop trips the
// budget and is classified FaultHeapBudget.
func TestHeapBudgetFault(t *testing.T) {
	leaker := compileSrc(t, `func main() {
		var x = 1;
		while (x) { var t = malloc(4096); t[0] = x; }
		return 0;
	}`)
	eng, err := New(sanitizers.CECSan, Options{HeapBudget: 1 << 16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, rerr := eng.Run(leaker)
	if rerr != nil {
		t.Fatalf("Run: %v", rerr)
	}
	fo := AsFault(res.Err)
	if fo == nil || fo.Class != FaultHeapBudget {
		t.Fatalf("err = %v, want FaultHeapBudget outcome", res.Err)
	}
	if !fo.Deterministic {
		t.Fatalf("heap-budget fault not deterministic: %+v", fo)
	}
}

// TestMaxCallDepthOption plumbs Options.MaxCallDepth through to the
// interpreter: recursion deeper than the limit aborts with ErrCallDepth.
func TestMaxCallDepthOption(t *testing.T) {
	deep := compileSrc(t, `func down(n) {
		if (n <= 0) { return 0; }
		return down(n - 1);
	}
	func main() { return down(100); }`)
	eng, err := New(sanitizers.CECSan, Options{MaxCallDepth: 10})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, rerr := eng.Run(deep)
	if rerr != nil {
		t.Fatalf("Run: %v", rerr)
	}
	if !errors.Is(res.Err, interp.ErrCallDepth) {
		t.Fatalf("err = %v, want ErrCallDepth", res.Err)
	}
	// A permissive limit lets the same program complete.
	eng2, err := New(sanitizers.CECSan, Options{MaxCallDepth: 200})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res2, rerr := eng2.Run(deep)
	if rerr != nil || res2.Err != nil {
		t.Fatalf("deep run under generous limit: res=%+v err=%v", res2, rerr)
	}
}

// TestPooledResetAfterInjectedFault pins the pool-hygiene contract behind
// recycling: after a run whose heap and space hooks injected faults
// mid-execution, Resources.Reset restores state byte-identical to fresh
// construction — same results, and no hook left armed.
func TestPooledResetAfterInjectedFault(t *testing.T) {
	p := compileSrc(t, normalSrc)
	opts := interp.DefaultOptions()
	san, err := sanitizers.New(sanitizers.CECSan)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ip := instrument.Apply(p, san.Profile)

	dirty, err := interp.NewResources(opts.AddrBits)
	if err != nil {
		t.Fatalf("NewResources: %v", err)
	}
	// An always-fail hook: the run dies on its first allocation.
	alwaysOOM := func() error { return faultinject.ErrInjectedOOM }
	dirty.Heap.SetFaultHook(alwaysOOM)
	m, err := interp.NewOn(dirty, ip, san, opts)
	if err != nil {
		t.Fatalf("NewOn: %v", err)
	}
	if res := m.Run(); !errors.Is(res.Err, faultinject.ErrInjectedOOM) {
		t.Fatalf("faulted run err = %v, want ErrInjectedOOM", res.Err)
	}
	dirty.Reset()

	fresh, err := interp.NewResources(opts.AddrBits)
	if err != nil {
		t.Fatalf("NewResources: %v", err)
	}
	run := func(res *interp.Resources) *interp.Result {
		s, err := sanitizers.New(sanitizers.CECSan)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		m, err := interp.NewOn(res, ip, s, opts)
		if err != nil {
			t.Fatalf("NewOn: %v", err)
		}
		return m.Run()
	}
	got, want := run(dirty), run(fresh)
	if got.Err != nil || got.Violation != nil {
		t.Fatalf("post-Reset run not clean: err=%v violation=%v (hook leaked through Reset?)", got.Err, got.Violation)
	}
	if got.Ret != want.Ret || got.Stats != want.Stats {
		t.Fatalf("post-Reset run differs from fresh resources:\n got %+v %+v\nwant %+v %+v",
			got.Ret, got.Stats, want.Ret, want.Stats)
	}
}

package traffic

import (
	"testing"
	"time"

	"cecsan/internal/faultinject"
)

// chaosSpec mirrors the example interactive-batch deployment: a spatial
// CECSan class plus a churn CECSan-hardened class, the combination the
// chaos campaign's panic/OOM injections and the degradation ladder both
// need (injected malloc faults only fire on allocating programs, and only
// hardened classes have rungs to step down).
const chaosSpec = `
version: "1"
seed: 21
aggregate_rate: 5000
clients:
  - id: interactive
    rate_fraction: 0.6
    deadline_ms: 200
    program:
      kind: spatial
      variants: 2
  - id: batch
    rate_fraction: 0.4
    profile: CECSan-hardened
    arrival:
      process: gamma
      cv: 2.0
    program:
      kind: churn
      variants: 2
    budget:
      max_steps: 500000
`

func TestBreakerStateMachine(t *testing.T) {
	cfg := ResilienceConfig{BreakerWindow: 4, BreakerThreshold: 0.5, BreakerCooldown: 3}.resolve()
	b := newBreaker(cfg)

	// Below threshold over a full window: stays closed.
	for _, fault := range []bool{true, false, false, false} {
		if !b.allow() {
			t.Fatal("closed breaker rejected a request")
		}
		if b.record(fault) {
			t.Fatal("tripped below threshold")
		}
	}
	// Two faults in the window reach the 0.5 threshold: trips.
	if !b.allow() {
		t.Fatal("closed breaker rejected a request")
	}
	if b.record(true) {
		t.Fatal("tripped with window fault rate 1/4")
	}
	b.allow()
	if !b.record(true) {
		t.Fatal("did not trip at fault rate 2/4")
	}
	if got := b.trips.Load(); got != 1 {
		t.Fatalf("trips = %d, want 1", got)
	}

	// Open: rejects for cooldown-1 requests, then half-opens a probe.
	for i := 0; i < 2; i++ {
		if b.allow() {
			t.Fatalf("open breaker allowed request %d during cooldown", i)
		}
	}
	if got := b.rejected.Load(); got != 2 {
		t.Fatalf("rejected = %d, want 2", got)
	}
	if !b.allow() {
		t.Fatal("cooldown expired but probe rejected")
	}
	// Faulted probe re-opens (and counts as a trip).
	if !b.record(true) {
		t.Fatal("faulted half-open probe did not re-trip")
	}
	// Walk the cooldown again; this time the probe succeeds and closes.
	for b.state != breakerHalfOpen {
		b.allow()
	}
	if b.record(false) {
		t.Fatal("clean probe tripped")
	}
	if b.state != breakerClosed {
		t.Fatalf("state after clean probe = %d, want closed", b.state)
	}
	// The window restarted: one fault must not trip a 4-window at 0.5.
	b.allow()
	if b.record(true) {
		t.Fatal("tripped on first fault after close (stale window?)")
	}
}

func TestLadderStepsAndRecovers(t *testing.T) {
	l := &ladder{
		rungs:     make([]rung, 4),
		stepTrips: 2,
		recovery:  3,
	}
	// Two trips step down one rung.
	l.onTrip()
	if l.level != 0 {
		t.Fatalf("level after 1 trip = %d, want 0", l.level)
	}
	l.onTrip()
	if l.level != 1 || l.degradations.Load() != 1 {
		t.Fatalf("level=%d degradations=%d after 2 trips, want 1/1", l.level, l.degradations.Load())
	}
	// Four more trips: down to level 3 (the floor).
	for i := 0; i < 4; i++ {
		l.onTrip()
	}
	if l.level != 3 {
		t.Fatalf("level = %d, want floor 3", l.level)
	}
	// Further trips saturate at the floor.
	l.onTrip()
	l.onTrip()
	if l.level != 3 {
		t.Fatalf("level past floor: %d", l.level)
	}
	// A fault resets the clean streak; recovery needs 3 consecutive cleans.
	l.onClean()
	l.onClean()
	l.onFault()
	l.onClean()
	l.onClean()
	if l.level != 3 {
		t.Fatalf("recovered early: level %d", l.level)
	}
	l.onClean()
	if l.level != 2 || l.recoveries.Load() != 1 {
		t.Fatalf("level=%d recoveries=%d, want 2/1", l.level, l.recoveries.Load())
	}
	// Trips needed again after recovery (budget was reset).
	l.onTrip()
	if l.level != 2 {
		t.Fatalf("single trip stepped down after recovery: %d", l.level)
	}
}

func TestCoDelShedsOnSustainedDelay(t *testing.T) {
	cfg := ResilienceConfig{CoDelTargetUS: 1000, CoDelIntervalUS: 10_000}.resolve()
	c := newCoDel(cfg)
	base := time.Unix(0, 0)
	ms := func(n int) time.Time { return base.Add(time.Duration(n) * time.Millisecond) }

	// Below target: never sheds.
	for i := 0; i < 100; i++ {
		if c.shed(ms(i), 500*time.Microsecond) {
			t.Fatal("shed below target")
		}
	}
	// Above target but shorter than one interval: no shed yet.
	if c.shed(ms(100), 2*time.Millisecond) {
		t.Fatal("shed on first above-target sample")
	}
	if c.shed(ms(105), 2*time.Millisecond) {
		t.Fatal("shed before a full interval above target")
	}
	// A full interval above target: dropping starts.
	if !c.shed(ms(111), 2*time.Millisecond) {
		t.Fatal("did not shed after a sustained interval above target")
	}
	// Within the episode, shedding is paced, not per-request.
	if c.shed(ms(112), 2*time.Millisecond) {
		t.Fatal("shed back-to-back requests")
	}
	if !c.shed(ms(122), 2*time.Millisecond) {
		t.Fatal("did not shed at the next control point")
	}
	// One sub-target sample ends the episode immediately.
	if c.shed(ms(123), 500*time.Microsecond) {
		t.Fatal("shed a below-target request")
	}
	if c.shed(ms(140), 2*time.Millisecond) {
		t.Fatal("episode did not reset after delay recovered")
	}
}

func TestTokenBucketPacing(t *testing.T) {
	base := time.Unix(0, 0)
	tb := newTokenBucket(10, 2) // 10 tokens/sec, burst 2, starts full
	if !tb.allow(base) || !tb.allow(base) {
		t.Fatal("bucket did not start full")
	}
	if tb.allow(base) {
		t.Fatal("allowed past burst with no refill")
	}
	// 100ms refills one token at 10/sec.
	if !tb.allow(base.Add(100 * time.Millisecond)) {
		t.Fatal("no token after refill")
	}
	if tb.allow(base.Add(100 * time.Millisecond)) {
		t.Fatal("refill over-credited")
	}
	// A long idle stretch caps at burst, not unbounded credit.
	at := base.Add(10 * time.Second)
	if !tb.allow(at) || !tb.allow(at) {
		t.Fatal("bucket did not refill to burst")
	}
	if tb.allow(at) {
		t.Fatal("burst cap not enforced")
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	cfg := ResilienceConfig{}.resolve()
	for attempt := 1; attempt <= 5; attempt++ {
		a := backoffUS(cfg, 42, 1000, attempt)
		b := backoffUS(cfg, 42, 1000, attempt)
		if a != b {
			t.Fatalf("attempt %d backoff not deterministic: %d vs %d", attempt, a, b)
		}
		if a <= 0 || a > cfg.RetryCapUS {
			t.Fatalf("attempt %d backoff %dus out of (0, %d]", attempt, a, cfg.RetryCapUS)
		}
	}
	if backoffUS(cfg, 42, 1000, 1) == backoffUS(cfg, 42, 1001, 1) &&
		backoffUS(cfg, 42, 1002, 1) == backoffUS(cfg, 42, 1003, 1) &&
		backoffUS(cfg, 42, 1004, 1) == backoffUS(cfg, 42, 1005, 1) {
		t.Fatal("jitter identical across requests: retry storms would synchronize")
	}
}

// chaosCounters extracts the deterministic slice of a result's accounting —
// everything the chaos digest covers plus the digest itself. Wall-clock
// fields (latency, deadline misses, goodput, CoDel/bucket sheds) are
// deliberately absent.
type chaosCounters struct {
	digest                                  string
	admitted, completed, faults, detected   int64
	retries, retrySuccesses                 int64
	breakerTrips, breakerRejected           int64
	degradations, recoveries, chaosInjected int64
}

func chaosSlice(res *ServeResult) chaosCounters {
	return chaosCounters{
		digest:          res.ChaosDigest,
		admitted:        res.Admitted,
		completed:       res.Completed,
		faults:          res.Faults,
		detected:        res.Detected,
		retries:         res.Retries,
		retrySuccesses:  res.RetrySuccesses,
		breakerTrips:    res.BreakerTrips,
		breakerRejected: res.BreakerRejected,
		degradations:    res.Degradations,
		recoveries:      res.Recoveries,
		chaosInjected:   res.ChaosInjected,
	}
}

const chaosTestRequests = 3 * 2 * int(faultinject.ChaosPhase) // three full storm/calm cycles

// TestChaosDeterministicAcrossWorkers is the tentpole acceptance check: a
// closed-loop chaos campaign's resilience accounting — admissions,
// completions, faults, retries, breaker and ladder moves, and the combined
// chaos digest — is byte-identical at any worker count.
func TestChaosDeterministicAcrossWorkers(t *testing.T) {
	spec := mustParse(t, chaosSpec)
	var want chaosCounters
	var stream string
	for i, workers := range []int{1, 4, 7} {
		res, err := Serve(ServeConfig{
			Spec:        spec,
			Workers:     workers,
			MaxRequests: chaosTestRequests,
			ChaosSeed:   11,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.ChaosDigest == "" {
			t.Fatal("chaos campaign produced no chaos digest")
		}
		got := chaosSlice(res)
		if i == 0 {
			want = got
			stream = res.StreamDigest
			continue
		}
		if got != want {
			t.Fatalf("workers=%d chaos accounting diverged:\n got %+v\nwant %+v", workers, got, want)
		}
		if res.StreamDigest != stream {
			t.Fatalf("workers=%d stream digest diverged", workers)
		}
	}
}

// TestChaosExercisesResilience pins that the fixed CI chaos seed actually
// drives every resilience mechanism: injections land, retries fire and
// mostly succeed, breakers trip, and the ladder steps down AND back up.
func TestChaosExercisesResilience(t *testing.T) {
	spec := mustParse(t, chaosSpec)
	res, err := Serve(ServeConfig{
		Spec:        spec,
		Workers:     4,
		MaxRequests: chaosTestRequests,
		ChaosSeed:   11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChaosInjected == 0 {
		t.Fatal("chaos campaign injected nothing")
	}
	if res.Retries == 0 || res.RetrySuccesses == 0 {
		t.Fatalf("retry policy idle: retries=%d successes=%d", res.Retries, res.RetrySuccesses)
	}
	if res.BreakerTrips == 0 {
		t.Fatalf("no breaker trips under chaos: %+v", chaosSlice(res))
	}
	if res.Degradations == 0 {
		t.Fatalf("ladder never stepped down under chaos: %+v", chaosSlice(res))
	}
	if res.Recoveries == 0 {
		t.Fatalf("ladder never recovered during calm phases: %+v", chaosSlice(res))
	}
	// The campaign keeps serving through the storms.
	if res.Completed == 0 || float64(res.Completed) < 0.5*float64(res.Admitted) {
		t.Fatalf("goodput collapsed: completed %d of %d admitted", res.Completed, res.Admitted)
	}
	checkAccounting(t, res)
}

// TestChaosOffMatchesLegacyStream pins the non-interference guarantee: with
// chaos off, a resilient campaign and one without resilience generate the same
// deterministic stream (same digest), and a clean workload trips nothing —
// zero breaker flaps, zero degradations, zero retries.
func TestChaosOffMatchesLegacyStream(t *testing.T) {
	spec := mustParse(t, chaosSpec)
	legacy, err := Serve(ServeConfig{Spec: spec, Workers: 3, MaxRequests: 200})
	if err != nil {
		t.Fatal(err)
	}
	resilient, err := Serve(ServeConfig{
		Spec:        spec,
		Workers:     3,
		MaxRequests: 200,
		Resilience:  &ResilienceConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.StreamDigest != resilient.StreamDigest {
		t.Fatalf("resilience changed the request stream: %s vs %s",
			resilient.StreamDigest, legacy.StreamDigest)
	}
	if resilient.ChaosDigest != "" {
		t.Fatal("chaos digest present with chaos off")
	}
	if resilient.BreakerTrips != 0 || resilient.Degradations != 0 ||
		resilient.Retries != 0 || resilient.Faults != 0 {
		t.Fatalf("clean campaign flapped: trips=%d degradations=%d retries=%d faults=%d",
			resilient.BreakerTrips, resilient.Degradations, resilient.Retries, resilient.Faults)
	}
	if resilient.Completed != resilient.Admitted {
		t.Fatalf("clean resilient campaign lost requests: completed %d of %d",
			resilient.Completed, resilient.Admitted)
	}
}

// checkAccounting asserts both accounting invariants of the ServeResult
// doc comment.
func checkAccounting(t *testing.T, res *ServeResult) {
	t.Helper()
	if res.Generated != res.Admitted+res.Shed+res.ShedBucket {
		t.Fatalf("generated %d != admitted %d + shed %d + shed_bucket %d",
			res.Generated, res.Admitted, res.Shed, res.ShedBucket)
	}
	if res.Admitted != res.Completed+res.Faults+res.BreakerRejected+res.ShedDelay+res.Abandoned {
		t.Fatalf("admitted %d != completed %d + faults %d + breaker_rejected %d + shed_delay %d + abandoned %d",
			res.Admitted, res.Completed, res.Faults, res.BreakerRejected, res.ShedDelay, res.Abandoned)
	}
}

// TestStopUnblocksSaturatedProducer is the closed-loop shutdown regression:
// with one worker and a saturated queue, Stop must unblock the producer,
// the backlog must drain as abandoned — bounded by in-flight work, not by
// the queue — and both accounting invariants must hold, including for the
// request the producer was holding when Stop fired. A stop lands on a held
// request only now and then, so the test stops many campaigns.
func TestStopUnblocksSaturatedProducer(t *testing.T) {
	spec := mustParse(t, chaosSpec)
	for i := 0; i < 20; i++ {
		stopCh := make(chan struct{})
		done := make(chan *ServeResult, 1)
		go func() {
			res, err := Serve(ServeConfig{
				Spec:       spec,
				Workers:    1,
				QueueDepth: 2,
				Stop:       stopCh,
			})
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
		time.Sleep(30 * time.Millisecond)
		close(stopCh)
		select {
		case res := <-done:
			if res == nil {
				return
			}
			checkAccounting(t, res)
		case <-time.After(10 * time.Second):
			t.Fatal("Serve did not return after Stop with a saturated queue")
		}
	}
}

// TestServeOpenLoopAccounting runs the open-loop producer (Speedup > 0)
// far past what one worker behind a one-slot queue can take, with the
// resilience layer armed. How much it sheds depends on timing, so only
// the accounting invariants and the stream — which must equal a
// closed-loop run's — are asserted.
func TestServeOpenLoopAccounting(t *testing.T) {
	spec := mustParse(t, chaosSpec)
	open, err := Serve(ServeConfig{
		Spec:        spec,
		Workers:     1,
		QueueDepth:  1,
		MaxRequests: 400,
		Speedup:     1000,
		Resilience:  &ResilienceConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if open.Generated != 400 {
		t.Fatalf("open loop generated %d of 400 requests", open.Generated)
	}
	checkAccounting(t, open)
	closed, err := Serve(ServeConfig{Spec: spec, Workers: 1, MaxRequests: 400})
	if err != nil {
		t.Fatal(err)
	}
	if open.StreamDigest != closed.StreamDigest {
		t.Fatalf("open-loop stream digest %s != closed-loop %s", open.StreamDigest, closed.StreamDigest)
	}
}

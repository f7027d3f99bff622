package traffic

import (
	"testing"

	"cecsan/internal/checkpoint"
	"cecsan/internal/obs"
)

// chaosFlightRun runs the standard chaos campaign with a flight recorder
// armed and returns the result plus the recorder.
func chaosFlightRun(t *testing.T, workers, retryMax int) (*ServeResult, *obs.FlightRecorder) {
	t.Helper()
	spec := mustParse(t, serveSpec)
	rec := obs.NewFlightRecorder(obs.FlightConfig{Budget: 4096, SampleN: 8})
	res, err := Serve(ServeConfig{
		Spec:        spec,
		Workers:     workers,
		MaxRequests: 400,
		ChaosSeed:   11,
		Resilience:  &ResilienceConfig{RetryMax: retryMax},
		Flight:      rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

// TestServeDigestsUnchangedByTracing is the zero-interference contract:
// arming the flight recorder must not move a single byte of either digest.
func TestServeDigestsUnchangedByTracing(t *testing.T) {
	spec := mustParse(t, serveSpec)
	run := func(rec *obs.FlightRecorder) *ServeResult {
		res, err := Serve(ServeConfig{
			Spec:        spec,
			Workers:     2,
			MaxRequests: 400,
			ChaosSeed:   11,
			Resilience:  &ResilienceConfig{},
			Flight:      rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	traced := run(obs.NewFlightRecorder(obs.FlightConfig{Budget: 1024, SampleN: 8}))
	if plain.StreamDigest != traced.StreamDigest {
		t.Fatalf("stream digest moved with tracing on: %s vs %s", plain.StreamDigest, traced.StreamDigest)
	}
	if plain.ChaosDigest != traced.ChaosDigest {
		t.Fatalf("chaos digest moved with tracing on: %s vs %s", plain.ChaosDigest, traced.ChaosDigest)
	}
}

// TestFlightWorkerIndependence: the retained trace-ID set of a chaos
// campaign is a pure function of (spec, seed, chaos seed) — scheduling
// (worker count) must not change it.
func TestFlightWorkerIndependence(t *testing.T) {
	_, recA := chaosFlightRun(t, 1, 0)
	_, recB := chaosFlightRun(t, 4, 0)
	a, b := recA.Records(), recB.Records()
	if len(a) == 0 {
		t.Fatal("chaos campaign retained no traces")
	}
	if len(a) != len(b) {
		t.Fatalf("retained %d traces at 1 worker, %d at 4", len(a), len(b))
	}
	for i := range a {
		if a[i].TraceID != b[i].TraceID {
			t.Fatalf("record %d: trace ID %s at 1 worker, %s at 4", i, a[i].TraceID, b[i].TraceID)
		}
	}
}

// TestFlightFaultedRetention: with retries disabled every chaos fault is
// terminal, and the recorder must retain 100% of faulted traces.
func TestFlightFaultedRetention(t *testing.T) {
	res, rec := chaosFlightRun(t, 2, -1)
	if res.Faults == 0 {
		t.Fatal("chaos campaign with retries disabled produced no faults")
	}
	sum := rec.Summary()
	if sum.EvictedInteresting != 0 {
		t.Fatalf("budget 4096 evicted %d interesting traces in a 400-request run", sum.EvictedInteresting)
	}
	if sum.Faulted != res.Faults {
		t.Fatalf("retained %d faulted traces, campaign accounted %d faults", sum.Faulted, res.Faults)
	}
	var seen int64
	for _, r := range rec.Records() {
		if r.Outcome == obs.OutcomeFault {
			seen++
		}
	}
	if seen != res.Faults {
		t.Fatalf("%d fault-outcome records, want %d", seen, res.Faults)
	}
}

// TestTraceLifecycleEvents: a retained executed trace carries the full
// lifecycle — generate, admit, dequeue, attempt, the execute span around the
// engine call, and the engine sub-spans (instrument, run) — in every serving
// mode, because every mode runs the same loop and the same process.
func TestTraceLifecycleEvents(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) *obs.FlightRecorder
	}{
		{"chaos", func(t *testing.T) *obs.FlightRecorder {
			_, rec := chaosFlightRun(t, 2, -1)
			return rec
		}},
		{"resilience_nil", func(t *testing.T) *obs.FlightRecorder {
			rec := obs.NewFlightRecorder(obs.FlightConfig{Budget: 4096, SampleN: 8})
			if _, err := Serve(ServeConfig{
				Spec:        mustParse(t, serveSpec),
				Workers:     2,
				MaxRequests: 400,
				Flight:      rec,
			}); err != nil {
				t.Fatal(err)
			}
			return rec
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, r := range tc.run(t).Records() {
				if r.Outcome != obs.OutcomeFault && r.Outcome != obs.OutcomeClean {
					continue
				}
				kinds := make(map[string]bool, len(r.Events))
				for _, ev := range r.Events {
					kinds[ev.Kind] = true
				}
				for _, want := range []string{"generate", "admit", "dequeue", "attempt", "execute", "instrument", "run"} {
					if !kinds[want] {
						t.Fatalf("trace %s (outcome %s) missing %q event: %+v", r.TraceID, r.Outcome, want, r.Events)
					}
				}
				return
			}
			t.Fatal("no executed trace retained")
		})
	}
}

// TestCheckpointFlightRoundtrip: the recorder's state rides the serve
// checkpoint — captured at the barrier, restored on resume — and a resume
// with mismatched arming fails loudly.
func TestCheckpointFlightRoundtrip(t *testing.T) {
	spec := mustParse(t, serveSpec)
	rec := obs.NewFlightRecorder(obs.FlightConfig{Budget: 256, SampleN: 4})
	dir := t.TempDir()
	ckptPath := dir + "/serve.ckpt"
	res, err := Serve(ServeConfig{
		Spec:            spec,
		Workers:         2,
		MaxRequests:     200,
		ChaosSeed:       11,
		Resilience:      &ResilienceConfig{RetryMax: -1},
		Flight:          rec,
		CheckpointPath:  ckptPath,
		CheckpointEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ck ServeCheckpoint
	if err := checkpoint.Load(ckptPath, checkpoint.KindServe, &ck); err != nil {
		t.Fatal(err)
	}
	if ck.Flight == nil {
		t.Fatal("checkpoint is missing the flight state")
	}
	if got := obs.FlightFromState(ck.Flight).Summary(); got.Faulted == 0 && res.Faults > 0 {
		t.Fatalf("final checkpoint retains no faulted traces (campaign had %d)", res.Faults)
	}

	// Resuming with a recorder restores the retained set.
	rec2 := obs.NewFlightRecorder(obs.FlightConfig{Budget: 256, SampleN: 4})
	if _, err := Serve(ServeConfig{
		Spec:        spec,
		Workers:     2,
		MaxRequests: 200,
		ChaosSeed:   11,
		Resilience:  &ResilienceConfig{RetryMax: -1},
		Flight:      rec2,
		Resume:      &ck,
	}); err != nil {
		t.Fatal(err)
	}

	// Resuming a flight-bearing checkpoint without a recorder is a shape
	// mismatch, not something to paper over.
	if _, err := Serve(ServeConfig{
		Spec:        spec,
		Workers:     2,
		MaxRequests: 200,
		ChaosSeed:   11,
		Resilience:  &ResilienceConfig{RetryMax: -1},
		Resume:      &ck,
	}); err == nil {
		t.Fatal("resume without a recorder must reject a checkpoint with flight state")
	}
}

// TestServeSLOStatus: a spec with slo: sections yields per-class SLO
// status in the result, and a clean campaign consumes no error budget.
func TestServeSLOStatus(t *testing.T) {
	spec := mustParse(t, `
version: "1"
seed: 21
aggregate_rate: 5000
clients:
  - id: interactive
    rate_fraction: 1.0
    deadline_ms: 200
    program:
      kind: spatial
      variants: 2
    slo:
      target: 0.95
      p99_ms: 200
`)
	res, err := Serve(ServeConfig{Spec: spec, Workers: 2, MaxRequests: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SLO) != 1 {
		t.Fatalf("slo status entries: %+v", res.SLO)
	}
	st := res.SLO[0]
	if st.Class != "interactive" || st.Target != 0.95 {
		t.Fatalf("slo status %+v", st)
	}
	if st.Total != res.Completed {
		t.Fatalf("slo total %d, campaign completed %d", st.Total, res.Completed)
	}
	if st.Exhausted || st.BudgetUsed != 0 {
		t.Fatalf("clean campaign consumed error budget: %+v", st)
	}
	if st.P99ObjectiveUS != 200_000 {
		t.Fatalf("p99 objective %dus, want 200000", st.P99ObjectiveUS)
	}
}

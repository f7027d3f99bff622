package engine

import (
	"testing"

	"cecsan/internal/obs"
	"cecsan/internal/sanitizers"
)

// TestStatsWallConcurrent pins the wall-clock snapshot race fix: Stats()
// reading first-start/last-end while runs are in flight must neither race
// (caught under -race) nor ever observe a torn span (an end before the
// start).
func TestStatsWallConcurrent(t *testing.T) {
	suite := sampleSuite(t, 1)
	eng, err := New(sanitizers.CECSan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := eng.Stats()
			if s.Wall < 0 {
				t.Error("Stats observed a negative wall span")
				return
			}
		}
	}()
	err = eng.ForEach(len(suite), func(i int) error {
		_, rerr := eng.Run(suite[i].Bad, suite[i].BadInputs...)
		return rerr
	})
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.Runs == 0 || s.Wall <= 0 {
		t.Fatalf("stats after campaign: %+v", s)
	}
}

// TestEngineObs drives a small suite through an engine with every
// observability facility on and checks the plumbing end to end: the site
// profiler attributes every executed check (the two check opcodes plus the
// libc entry check are the only ChecksExecuted increments, so attribution
// is exactly 100%), the per-run histograms count every run, the flight
// recorder holds one trace per run with its instrument, run and reset
// spans, and the registry gauges mirror engine stats.
func TestEngineObs(t *testing.T) {
	o := obs.New()
	o.Flight = obs.NewFlightRecorder(obs.FlightConfig{SampleN: 1})
	o.Sites = obs.NewSiteProfiler()
	suite := sampleSuite(t, 2)
	eng, err := New(sanitizers.CECSan, Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	var checks int64
	for _, cs := range suite {
		res, rerr := eng.Run(cs.Bad, cs.BadInputs...)
		if rerr != nil {
			t.Fatal(rerr)
		}
		checks += res.Stats.ChecksExecuted
	}
	if checks == 0 {
		t.Fatal("suite executed no checks; the attribution test is vacuous")
	}
	if fires := o.Sites.TotalFires(); fires != checks {
		t.Fatalf("site profiler attributed %d fires, ChecksExecuted total is %d", fires, checks)
	}

	s := eng.Stats()
	h := o.Registry.Histogram("engine_run_duration_us", obs.L("tool", "CECSan"))
	if h.Count() != s.Runs {
		t.Fatalf("run-duration histogram has %d observations, engine ran %d", h.Count(), s.Runs)
	}
	hc := o.Registry.Histogram("engine_run_checks", obs.L("tool", "CECSan"))
	if hc.Sum() != checks {
		t.Fatalf("run-checks histogram sums to %d, want %d", hc.Sum(), checks)
	}

	recs := o.Flight.Records()
	if int64(len(recs)) != s.Runs {
		t.Fatalf("flight recorder holds %d traces, engine ran %d", len(recs), s.Runs)
	}
	for _, r := range recs {
		requireEngineSpans(t, r)
	}

	if v, ok := o.Registry.Value("engine_runs_total", obs.L("tool", "CECSan")); !ok || int64(v) != s.Runs {
		t.Fatalf("engine_runs_total gauge = %v, %v; want %d", v, ok, s.Runs)
	}
}

// requireEngineSpans checks that r is an engine-owned trace carrying the
// instrument, run and reset spans of one execution.
func requireEngineSpans(t *testing.T, r obs.TraceRecord) {
	t.Helper()
	kinds := map[string]int{}
	for _, ev := range r.Events {
		kinds[ev.Kind]++
	}
	for _, k := range []string{"instrument", "run", "reset"} {
		if kinds[k] != 1 {
			t.Fatalf("trace %s holds %d %q spans, want 1: %+v", r.TraceID, kinds[k], k, r.Events)
		}
	}
	if r.Class != "CECSan" {
		t.Fatalf("trace %s class %q, want the tool name", r.TraceID, r.Class)
	}
	switch r.Outcome {
	case obs.OutcomeClean, obs.OutcomeDetected, obs.OutcomeFault:
	default:
		t.Fatalf("trace %s outcome %q", r.TraceID, r.Outcome)
	}
}

// TestEngineOwnedTraces pins the trace ownership rules: a NewMachine trace
// is recorded at Release (not before) under the same ID a Run of the same
// program gets, and a caller-owned PlannedRun.Trace receives the spans but
// is never recorded by the engine.
func TestEngineOwnedTraces(t *testing.T) {
	o := obs.New()
	o.Flight = obs.NewFlightRecorder(obs.FlightConfig{SampleN: 1})
	eng, err := New(sanitizers.CECSan, Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	cs := sampleSuite(t, 1)[0]

	m, err := eng.NewMachine(cs.Bad)
	if err != nil {
		t.Fatal(err)
	}
	m.Feed(cs.BadInputs...)
	res := m.Run()
	if n := len(o.Flight.Records()); n != 0 {
		t.Fatalf("%d traces recorded before Release, want 0", n)
	}
	m.Release()
	m.Release() // idempotent: no second record
	recs := o.Flight.Records()
	if len(recs) != 1 {
		t.Fatalf("%d traces after Release, want 1", len(recs))
	}
	requireEngineSpans(t, recs[0])
	if res.Violation == nil || recs[0].Outcome != obs.OutcomeDetected {
		t.Fatalf("bad case: violation %v, trace outcome %q; want a detected trace", res.Violation, recs[0].Outcome)
	}

	if _, err := eng.Run(cs.Bad, cs.BadInputs...); err != nil {
		t.Fatal(err)
	}
	recs = o.Flight.Records()
	if len(recs) != 2 || recs[0].TraceID != recs[1].TraceID {
		t.Fatalf("Run and NewMachine of one program must share a trace ID: %+v", recs)
	}

	tr := obs.NewRequestTrace(1, 0, "caller")
	if _, err := eng.RunPlanned(cs.Bad, PlannedRun{Trace: tr}, cs.BadInputs...); err != nil {
		t.Fatal(err)
	}
	if got := o.Flight.Summary().Finished; got != 2 {
		t.Fatalf("recorder finished %d traces after a caller-traced run, want 2", got)
	}
	if len(tr.Events) != 4 { // generate + instrument, run, reset
		t.Fatalf("caller trace events %+v, want generate + three engine spans", tr.Events)
	}
}

// TestGaugeReregistration pins the rebuilt-engine behaviour: a second engine
// for the same tool takes over the gauge series instead of panicking or
// leaving the series pointed at the dead engine.
func TestGaugeReregistration(t *testing.T) {
	o := obs.New()
	if _, err := New(sanitizers.CECSan, Options{Obs: o}); err != nil {
		t.Fatal(err)
	}
	eng2, err := New(sanitizers.CECSan, Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	suite := sampleSuite(t, 1)
	if _, err := eng2.Run(suite[0].Bad, suite[0].BadInputs...); err != nil {
		t.Fatal(err)
	}
	if v, ok := o.Registry.Value("engine_runs_total", obs.L("tool", "CECSan")); !ok || v != 1 {
		t.Fatalf("engine_runs_total = %v, %v; want 1 (series must follow the newest engine)", v, ok)
	}
}

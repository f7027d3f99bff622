package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestDeriveTraceIDDeterministic(t *testing.T) {
	a := DeriveTraceID(42, 7)
	b := DeriveTraceID(42, 7)
	if a != b {
		t.Fatalf("same (seed, index) produced %s and %s", a, b)
	}
	if DeriveTraceID(42, 8) == a || DeriveTraceID(43, 7) == a {
		t.Fatal("different seed or index must produce a different trace ID")
	}
	if len(a.String()) != 16 {
		t.Fatalf("trace ID %q is not 16 hex chars", a.String())
	}
}

// finish runs one synthetic trace through the recorder.
func finish(f *FlightRecorder, seed, idx uint64, outcome string, mut func(*RequestTrace)) {
	tr := NewRequestTrace(seed, idx, "c")
	if mut != nil {
		mut(tr)
	}
	f.Finish(tr, outcome)
}

func TestFlightRetention(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Budget: 64, SampleN: 4})
	finish(f, 1, 0, OutcomeFault, nil)
	finish(f, 1, 1, OutcomeRejected, nil)
	finish(f, 1, 2, OutcomeShedQueue, nil)
	finish(f, 1, 3, OutcomeAbandoned, nil)
	finish(f, 1, 4, OutcomeClean, func(tr *RequestTrace) { tr.Retried = true })
	finish(f, 1, 5, OutcomeClean, func(tr *RequestTrace) { tr.DeadlineMiss = true })
	sum := f.Summary()
	if sum.Interesting != 6 {
		t.Fatalf("interesting = %d, want 6 (fault, rejected, shed, abandoned, retried, deadline-missed)", sum.Interesting)
	}
	if sum.Faulted != 1 || sum.Rejected != 1 || sum.Shed != 1 || sum.Abandoned != 1 || sum.Retried != 1 || sum.DeadlineMissed != 1 {
		t.Fatalf("category counts wrong: %+v", sum)
	}
}

func TestFlightDeterministicOnlyExcludesDeadlineMiss(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Budget: 64, SampleN: 1 << 20})
	f.SetDeterministicOnly(true)
	// A deadline miss is wall-clock-dependent: in deterministic-only mode it
	// must not, by itself, make a trace interesting.
	finish(f, 1, 5, OutcomeClean, func(tr *RequestTrace) { tr.DeadlineMiss = true })
	finish(f, 1, 6, OutcomeFault, nil)
	sum := f.Summary()
	if sum.Interesting != 1 || sum.Faulted != 1 {
		t.Fatalf("deterministic-only retained %d interesting (want only the fault): %+v", sum.Interesting, sum)
	}
}

func TestFlightHealthySampling(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Budget: 4096, SampleN: 4})
	const n = 1000
	for i := uint64(0); i < n; i++ {
		finish(f, 9, i, OutcomeClean, nil)
	}
	sum := f.Summary()
	if sum.Interesting != 0 {
		t.Fatalf("clean traces retained as interesting: %+v", sum)
	}
	// The sample is keyed on the trace ID (uniform under splitmix64), so
	// roughly 1/4 of 1000 traces land in the sampled ring.
	if sum.SampledHealthy < n/8 || sum.SampledHealthy > n/2 {
		t.Fatalf("sampled %d of %d healthy traces, want ~%d", sum.SampledHealthy, n, n/4)
	}
	// The sampled set is a pure function of the IDs: a second recorder over
	// the same traces retains the identical set.
	g := NewFlightRecorder(FlightConfig{Budget: 4096, SampleN: 4})
	for i := uint64(0); i < n; i++ {
		finish(g, 9, i, OutcomeClean, nil)
	}
	a, b := f.Records(), g.Records()
	if len(a) != len(b) {
		t.Fatalf("retained %d vs %d records", len(a), len(b))
	}
	for i := range a {
		if a[i].TraceID != b[i].TraceID {
			t.Fatalf("record %d: %s vs %s", i, a[i].TraceID, b[i].TraceID)
		}
	}
}

func TestFlightEviction(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Budget: 8, SampleN: 1}) // caps: 2 sampled, 6 interesting
	for i := uint64(0); i < 10; i++ {
		finish(f, 3, i, OutcomeFault, nil)
	}
	for i := uint64(100); i < 110; i++ {
		finish(f, 3, i, OutcomeClean, nil)
	}
	sum := f.Summary()
	if sum.Retained > 8 {
		t.Fatalf("retained %d traces over budget 8", sum.Retained)
	}
	if sum.EvictedInteresting != 4 {
		t.Fatalf("evicted_interesting = %d, want 4 (10 faults into 6 slots)", sum.EvictedInteresting)
	}
	if sum.EvictedSampled != 8 {
		t.Fatalf("evicted_sampled = %d, want 8 (10 healthy at SampleN=1 into 2 slots)", sum.EvictedSampled)
	}
	// Healthy pressure never evicts interesting traces: the rings are
	// separate.
	if sum.Interesting != 6 {
		t.Fatalf("interesting ring holds %d, want its full cap 6", sum.Interesting)
	}
}

func TestFlightExportImportRoundtrip(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Budget: 64, SampleN: 2})
	f.SetDeterministicOnly(true)
	finish(f, 5, 0, OutcomeFault, nil)
	finish(f, 5, 1, OutcomeClean, nil)
	finish(f, 5, 2, OutcomeClean, nil)
	st := f.Export()

	g := NewFlightRecorder(FlightConfig{Budget: 64, SampleN: 2})
	if err := g.Import(&st); err != nil {
		t.Fatal(err)
	}
	a, b := f.Records(), g.Records()
	if len(a) != len(b) {
		t.Fatalf("roundtrip retained %d records, want %d", len(b), len(a))
	}
	sa, sb := f.Summary(), g.Summary()
	if sa != sb {
		t.Fatalf("summaries diverge after roundtrip:\n%+v\n%+v", sa, sb)
	}

	mismatched := NewFlightRecorder(FlightConfig{Budget: 32, SampleN: 2})
	if err := mismatched.Import(&st); err == nil {
		t.Fatal("importing into a recorder with a different budget must fail")
	}
}

func TestFlightFromState(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Budget: 16, SampleN: 1 << 20})
	finish(f, 5, 3, OutcomeFault, nil)
	st := f.Export()
	g := FlightFromState(&st)
	recs := g.Records()
	if len(recs) != 1 || recs[0].Outcome != OutcomeFault {
		t.Fatalf("reconstructed recorder holds %+v", recs)
	}
}

func TestFlightWriteJSONLines(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Budget: 16, SampleN: 1 << 20})
	finish(f, 5, 3, OutcomeFault, func(tr *RequestTrace) {
		tr.Add("attempt").Detail = "full"
	})
	var b strings.Builder
	if err := f.WriteJSONLines(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1:\n%s", len(lines), b.String())
	}
	var rec TraceRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line is not valid JSON: %v", err)
	}
	if rec.TraceID != DeriveTraceID(5, 3).String() || rec.Outcome != OutcomeFault {
		t.Fatalf("record %+v", rec)
	}
}

// TestDeriveTraceIDVectors pins two IDs computed with the original inline
// finalizer, so every serve trace ID provably stays put.
func TestDeriveTraceIDVectors(t *testing.T) {
	for _, c := range []struct {
		seed, index uint64
		want        TraceID
	}{{42, 0, 0xbdd732262feb6e95}, {5, 3, 0x196e4ec2da05b945}} {
		if got := DeriveTraceID(c.seed, c.index); got != c.want {
			t.Fatalf("DeriveTraceID(%d, %d) = %s, want %s", c.seed, c.index, got, c.want)
		}
	}
}

// chromeEvent is the decoded subset of a Chrome trace_event the tests read.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// chromeEvents exports f and decodes the trace_event list.
func chromeEvents(t *testing.T, f *FlightRecorder) []chromeEvent {
	t.Helper()
	var b strings.Builder
	if err := f.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, b.String())
	}
	return doc.TraceEvents
}

func TestFlightWriteChromeTrace(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Budget: 16, SampleN: 1 << 20})
	finish(f, 5, 3, OutcomeFault, func(tr *RequestTrace) {
		ev := tr.Add("run")
		ev.DurUS = 12
	})
	var haveSpan, haveInstant bool
	for _, ev := range chromeEvents(t, f) {
		switch {
		case ev.Name == "run" && ev.Ph == "X":
			haveSpan = true
		case ev.Name == OutcomeFault && ev.Ph == "i":
			haveInstant = true
		}
	}
	if !haveSpan || !haveInstant {
		t.Fatal("spans must export as complete (X) events and instants as instant (i) marks")
	}
}

// rowRecords fills a recorder with three one-span records: 0 at [100, 150),
// 1 at [120, 170) overlapping it, and 2 at [160, 170) after 0 has ended.
func rowRecords() *FlightRecorder {
	f := NewFlightRecorder(FlightConfig{SampleN: 1})
	record := func(idx uint64, startUS, runUS int64) {
		tr := &RequestTrace{ID: DeriveTraceID(9, idx), Class: "c", Index: idx,
			Start: f.epoch.Add(time.Duration(startUS) * time.Microsecond)}
		tr.Events = append(tr.Events, TraceEvent{Kind: "run", DurUS: runUS})
		f.Finish(tr, OutcomeClean)
	}
	record(0, 100, 50)
	record(1, 120, 50)
	record(2, 160, 10)
	return f
}

// TestTracerLanes pins the export-time row assignment: overlapping records
// take distinct rows, and a later record reuses the lowest free row.
func TestTracerLanes(t *testing.T) {
	tids := map[string]int{}
	for _, ev := range chromeEvents(t, rowRecords()) {
		if ev.Name == "run" {
			tids[ev.Args["trace_id"].(string)] = ev.TID
		}
	}
	a, b, c := tids[DeriveTraceID(9, 0).String()], tids[DeriveTraceID(9, 1).String()], tids[DeriveTraceID(9, 2).String()]
	if a == b {
		t.Fatalf("overlapping records share row %d", a)
	}
	if c != a || a > b {
		t.Fatalf("rows %d, %d, %d: the later record must reuse the lowest free row", a, b, c)
	}
}

// TestTraceExport pins what each exported span keeps: the X phase, its
// timing, and its record's trace_id/outcome.
func TestTraceExport(t *testing.T) {
	seen := 0
	for _, ev := range chromeEvents(t, rowRecords()) {
		if ev.Name != "run" {
			continue
		}
		seen++
		if ev.Ph != "X" {
			t.Fatalf("span exported as %q, want X", ev.Ph)
		}
		id := ev.Args["trace_id"].(string)
		if ev.Args["outcome"] != OutcomeClean {
			t.Fatalf("event args %v lost the outcome", ev.Args)
		}
		var want struct{ ts, dur int64 }
		switch id {
		case DeriveTraceID(9, 0).String():
			want.ts, want.dur = 100, 50
		case DeriveTraceID(9, 1).String():
			want.ts, want.dur = 120, 50
		case DeriveTraceID(9, 2).String():
			want.ts, want.dur = 160, 10
		default:
			t.Fatalf("unexpected trace_id %q", id)
		}
		if ev.TS != want.ts || ev.Dur != want.dur {
			t.Fatalf("trace %s: ts/dur = %d/%d, want %d/%d", id, ev.TS, ev.Dur, want.ts, want.dur)
		}
	}
	if seen != 3 {
		t.Fatalf("run spans = %d, want 3", seen)
	}
}

package obs

import (
	"fmt"
	"time"

	"cecsan/internal/splitmix"
)

// TraceID identifies one request's lifecycle trace. IDs derive
// deterministically from (campaign seed, stream index), so the same request
// carries the same ID at any worker count, queue depth or speedup — traces
// are byte-comparable across runs the same way stream_digest is.
type TraceID uint64

// String renders the ID as fixed-width hex, the form exported records use.
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// DeriveTraceID maps (seed, stream index) to a TraceID: the SplitMix64
// draw at position index of the stream seeded with seed, the same
// construction the traffic layer uses for its seed tree.
func DeriveTraceID(seed, index uint64) TraceID {
	return TraceID(splitmix.Mix(seed + index*splitmix.Golden))
}

// Terminal outcomes of a request lifecycle. They mirror the serving layer's
// accounting: every generated request ends in exactly one of these.
const (
	OutcomeClean      = "clean"
	OutcomeDetected   = "detected"
	OutcomeFault      = "fault"
	OutcomeRejected   = "rejected"
	OutcomeShedQueue  = "shed_queue"
	OutcomeShedBucket = "shed_bucket"
	OutcomeShedDelay  = "shed_delay"
	OutcomeAbandoned  = "abandoned"
)

// TraceEvent is one step in a request lifecycle: generate, admit, dequeue,
// attempt, retry, engine sub-spans (instrument/run/reset), the terminal
// outcome. AtUS is the offset from the trace start; DurUS is set for spans,
// zero for instants.
type TraceEvent struct {
	Kind string `json:"kind"`
	AtUS int64  `json:"at_us"`
	// DurUS is the span duration for timed phases (queue wait, engine
	// sub-spans); 0 for instant events.
	DurUS int64 `json:"dur_us,omitempty"`
	// Attempt numbers the execution attempt the event belongs to (1-based);
	// 0 for events outside the retry loop.
	Attempt int `json:"attempt,omitempty"`
	// Detail carries the event's qualifier: the degradation rung of an
	// attempt, the fault class of a fault/retry, the shed reason.
	Detail string `json:"detail,omitempty"`
	// ValueUS carries an event-specific duration that is not a span — the
	// seeded backoff a retry slept, for example.
	ValueUS int64 `json:"value_us,omitempty"`
}

// RequestTrace is one request's lifecycle record, threaded from generation
// through admission, shedding, breaker decisions, retries and engine
// execution to its terminal outcome. A trace is owned by one goroutine at a
// time (the producer, then the single worker executing the request), so it
// needs no internal locking; handing it to the flight recorder via Finish
// is the only cross-goroutine transfer.
type RequestTrace struct {
	ID    TraceID
	Class string
	Index uint64
	Start time.Time

	// Outcome, Attempts, Retried and DeadlineMiss summarize the lifecycle;
	// the serving layer fills them in as it accounts the request.
	Outcome      string
	Attempts     int
	Retried      bool
	DeadlineMiss bool

	Events []TraceEvent
}

// NewRequestTrace starts a trace for the request at the given stream index.
// The "generate" event is recorded at offset zero.
func NewRequestTrace(seed, index uint64, class string) *RequestTrace {
	t := &RequestTrace{
		ID:    DeriveTraceID(seed, index),
		Class: class,
		Index: index,
		Start: time.Now(),
	}
	t.Events = append(t.Events, TraceEvent{Kind: "generate"})
	return t
}

// Add appends an instant event at the current offset and returns a pointer
// to it so the caller can attach Attempt/Detail/ValueUS. The pointer is
// only valid until the next Add/Span call (the slice may grow).
func (t *RequestTrace) Add(kind string) *TraceEvent {
	t.Events = append(t.Events, TraceEvent{Kind: kind, AtUS: time.Since(t.Start).Microseconds()})
	return &t.Events[len(t.Events)-1]
}

// Span appends a timed event covering [start, start+d).
func (t *RequestTrace) Span(kind string, start time.Time, d time.Duration) {
	t.Events = append(t.Events, TraceEvent{
		Kind:  kind,
		AtUS:  start.Sub(t.Start).Microseconds(),
		DurUS: d.Microseconds(),
	})
}

// Complete marks the terminal outcome and records it as the trace's final
// event.
func (t *RequestTrace) Complete(outcome string) {
	t.Outcome = outcome
	t.Add(outcome)
}

// Package obs is the repository's unified observability layer: a metrics
// registry (counters, gauges, log-bucketed histograms) with lock-free
// hot-path recording and JSON + Prometheus-text exposition, a check-site
// profiler attributing executed sanitizer checks to their static sites,
// request traces with a tail-sampling flight recorder — the one trace sink,
// exported as JSON lines or as a Chrome trace_event flame chart — and a live
// HTTP introspection endpoint (metric snapshots plus net/http/pprof) for
// watching long-running campaigns without stopping them.
//
// Within the repository the package imports only the leaf internal/splitmix:
// everything else (engine, interp, harness, fuzz, cliutil, the cmd/ tools)
// imports obs, never the reverse. Observability is strictly off the report
// path — the layer only ever *reads* execution state, so differential fuzz
// reports and the Table II output are byte-identical whether an Observer is
// attached or not (pinned by TestFuzzReportByteIdentity /
// TestTable2ByteIdentity).
package obs

import "sync/atomic"

// Observer bundles the observability facilities a consumer can attach to
// the execution pipeline. Registry and Health are always present; Flight
// and Sites are nil unless the corresponding flag (-trace, -profile-checks)
// enabled them, so their costs — trace recording, per-check timing — are
// strictly opt-in.
type Observer struct {
	// Registry holds the metric instruments. Never nil on an Observer built
	// with New.
	Registry *Registry
	// Flight receives the request traces carrying the engine's
	// instrument/run/reset spans; nil disables trace recording.
	Flight *FlightRecorder
	// Sites profiles executed checks per (sanitizer, check site); nil
	// disables the per-check timing instrumentation.
	Sites *SiteProfiler
	// Health backs the /healthz and /readyz endpoints. Never nil on an
	// Observer built with New; the serving layer flips readiness once its
	// cache prewarm completes.
	Health *Health
	// SLO, when the attached campaign declared objectives, backs the /slo
	// endpoint and the slo_* gauges.
	SLO *SLO
}

// New returns an Observer with a fresh Registry and Health, no flight
// recorder or site profiler. Callers enable those by assigning
// NewFlightRecorder / NewSiteProfiler.
func New() *Observer {
	return &Observer{Registry: NewRegistry(), Health: &Health{}}
}

// Health is the process's liveness/readiness state. Liveness is implicit
// (the endpoint answering is the signal); readiness is flipped by the
// consumer once it can usefully serve — the traffic layer sets it after the
// instrumentation-cache prewarm.
type Health struct {
	ready atomic.Bool
}

// SetReady flips the readiness state.
func (h *Health) SetReady(v bool) {
	if h != nil {
		h.ready.Store(v)
	}
}

// Ready reports the readiness state.
func (h *Health) Ready() bool { return h != nil && h.ready.Load() }

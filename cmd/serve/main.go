// Command serve runs a long-lived traffic campaign: a YAML workload spec
// (internal/traffic) is expanded into a deterministic request stream of
// heterogeneous client classes, admitted through a bounded queue into
// per-class engine pools, with deadline-miss, shed and per-class latency
// percentile accounting.
//
// Usage:
//
//	serve -spec examples/workloads/interactive-batch.yaml
//	      [-seed N] [-workers N] [-max-requests N] [-duration 30s]
//	      [-speedup X] [-queue N]
//	      [-resilience] [-chaos-seed N] [-retry-max N] [-overload]
//	      [-checkpoint s.ckpt] [-checkpoint-every N] [-resume s.ckpt]
//	      [-supervise] [-max-restarts N]
//	      [-flight f.jsonl] [-flight-budget N] [-flight-sample N]
//	      [-json serve.json] [-progress]
//	      [-metrics-json m.json] [-trace t.json] [-http 127.0.0.1:0]
//
// With -speedup X the spec's virtual arrival schedule replays compressed
// X-fold on the wall clock (open loop: a full admission queue sheds).
// Without it the campaign runs closed-loop — requests are admitted as
// fast as the workers drain them — which makes every request and outcome
// counter independent of timing: the mode the committed serve records
// (gated exactly by cmd/benchgate) are taken in.
//
// -resilience arms the overload layer: CoDel-style delay shedding,
// per-class token buckets, bounded retries with seeded backoff, per-class
// circuit breakers and the graceful-degradation ladder. -chaos-seed N
// additionally arms the chaos campaign (implies -resilience): injections
// derive from (chaos seed, stream index), execution switches to per-class
// ordered consumers, and the summary's chaos_digest is byte-identical at
// any -workers for a closed-loop run.
//
// -overload replaces the single campaign with a sweep: one closed-loop
// calibration run measures capacity, then 5000-request points replay the
// stream open-loop at 1, 2 and 4 times capacity with resilience armed.
//
// The request stream (and the stream_digest in the summary) depends only
// on (spec, seed): rerunning with a different -workers, -speedup or any
// resilience knob changes scheduling and latency, never the traffic.
//
// -checkpoint arms periodic durable snapshots: the producer pauses at a
// consistent cut every -checkpoint-every generated requests (default
// 1000) and atomically rewrites the snapshot. -resume restores one
// (validated against the spec fingerprint, seed and chaos seed) and
// continues the campaign; for a closed-loop run the resumed stream and
// chaos digests are byte-identical to an uninterrupted run's. -resume
// implies -checkpoint to the same path unless one is given.
//
// -supervise runs the campaign in a forked worker process and restarts
// it from the last checkpoint after an abnormal exit (signal death,
// panic, internal error), with a bounded restart budget (-max-restarts)
// and crash-loop backoff. The summary's
// restarts counter records how many times the worker died. When -flight
// is also set, each abnormal exit dumps the last checkpoint's retained
// traces to <flight>.crash before restarting — a post-mortem that
// survives the worker's death.
//
// -flight arms the tail-sampling flight recorder: every request carries
// a lifecycle trace (trace IDs derive from (seed, stream index), so they
// are byte-identical across worker counts), and the recorder retains all
// faulted/retried/shed/rejected traces plus a deterministic 1-in-N
// healthy sample (-flight-sample) inside a fixed budget (-flight-budget).
// Retained traces are written as JSON lines to the -flight path. -trace
// arms the same recorder and writes its Chrome trace_event view (load it
// in chrome://tracing or Perfetto): each request's lifecycle events with
// the engine's instrument/run/reset spans nested in its execute span.
//
// The summary carries the campaign's SLO status; cmd/benchgate fails a
// record whose error budget is exhausted or whose p99 objective is
// violated.
//
// Exit status:
//
//	0  campaign completed
//	2  spec or internal error
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cecsan/internal/checkpoint"
	"cecsan/internal/cliutil"
	"cecsan/internal/obs"
	"cecsan/internal/traffic"
)

const (
	exitOK       = 0
	exitInternal = 2
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
	}
	os.Exit(code)
}

// benchRecord is the -json payload: run metadata plus the campaign
// summary. Its exact projection is the committed BENCH_serve.json (and
// BENCH_chaos.json for the chaos campaign).
type benchRecord struct {
	Bench string `json:"bench"`
	Spec  string `json:"spec"`
	*traffic.ServeResult
}

// overloadRecord is the -overload -json payload.
type overloadRecord struct {
	Bench string `json:"bench"`
	Spec  string `json:"spec"`
	*traffic.OverloadResult
}

func run() (int, error) {
	specPath := flag.String("spec", "", "workload spec YAML (required)")
	seed := cliutil.SeedFlag(0, "override the spec's campaign seed (0 = use spec)")
	workers := cliutil.WorkersFlag()
	maxRequests := flag.Int("max-requests", 0, "stop after N requests (0 = spec's max_requests)")
	duration := flag.Duration("duration", 0, "stop admission after this wall time (0 = until stream ends)")
	speedup := flag.Float64("speedup", 0, "replay the virtual arrival schedule compressed X-fold (0 = closed loop)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 4x workers)")
	resilience := flag.Bool("resilience", false, "arm the overload-resilience layer (admission control, retries, breakers, degradation ladder)")
	chaosSeed := flag.Uint64("chaos-seed", 0, "arm the chaos campaign with this seed (implies -resilience; 0 = off)")
	retryMax := flag.Int("retry-max", 0, "max retries per request (0 = default, -1 disables)")
	overload := flag.Bool("overload", false, "run the overload sweep (calibrate, then open-loop points at 1, 2 and 4x capacity)")
	jsonPath := cliutil.JSONFlag("write the campaign (or -overload sweep) summary to this path")
	progress := flag.Bool("progress", false, "print a progress line every 256 processed requests")
	ckptPath := flag.String("checkpoint", "", "write a durable campaign snapshot to this path at the checkpoint cadence")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint cadence in generated requests (0 = 1000)")
	resumePath := flag.String("resume", "", "restore this snapshot and continue the campaign")
	supervise := flag.Bool("supervise", false, "fork a worker process and restart it from the last checkpoint after abnormal exits")
	maxRestarts := flag.Int("max-restarts", 5, "restart budget for -supervise before giving up")
	crashAfter := flag.Int("crash-after", 0, "kill -9 this process after N processed requests this incarnation (crash-injection testing; 0 = off)")
	flightPath := flag.String("flight", "", "arm the flight recorder and write retained traces as JSON lines to this path")
	flightBudget := flag.Int("flight-budget", obs.DefaultFlightBudget, "flight recorder trace budget")
	flightSample := flag.Int("flight-sample", obs.DefaultFlightSampleN, "keep 1 in N healthy traces (deterministic, keyed on trace ID)")
	obsFlags := cliutil.ObsFlagsCmd()
	flag.Parse()

	if *specPath == "" {
		flag.Usage()
		return exitInternal, fmt.Errorf("-spec is required")
	}
	spec, err := traffic.Load(*specPath)
	if err != nil {
		return exitInternal, err
	}

	if *supervise {
		if *overload {
			return exitInternal, fmt.Errorf("-supervise does not apply to -overload sweeps")
		}
		if *ckptPath == "" {
			return exitInternal, fmt.Errorf("-supervise requires -checkpoint (restarts resume from the last snapshot)")
		}
		return runSupervised(*ckptPath, *maxRestarts, *flightPath)
	}

	var flight *obs.FlightRecorder
	if *flightPath != "" || obsFlags.TracePath != "" {
		flight = obs.NewFlightRecorder(obs.FlightConfig{
			Budget:  *flightBudget,
			SampleN: *flightSample,
		})
	}

	var resCfg *traffic.ResilienceConfig
	if *resilience || *chaosSeed != 0 || *overload {
		resCfg = &traffic.ResilienceConfig{RetryMax: *retryMax}
	}

	observer, srv, err := obsFlags.Build()
	if err != nil {
		return exitInternal, err
	}
	if observer != nil {
		// One recorder: -trace exports the traces -flight retains.
		observer.Flight = flight
	}

	if *overload {
		return runOverload(spec, observer, srv, obsFlags, overloadOpts{
			specPath:  *specPath,
			seed:      *seed,
			workers:   cliutil.ResolveWorkers(*workers),
			res:       resCfg,
			chaosSeed: *chaosSeed,
			queue:     *queue,
			jsonPath:  *jsonPath,
			progress:  *progress,
		})
	}

	if spec.MaxRequests == 0 && *maxRequests == 0 && *duration == 0 {
		fmt.Fprintln(os.Stderr, "serve: unbounded campaign (no -duration / -max-requests); stop with ^C")
	}

	stop := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "serve: stopping (signal)")
		close(stop)
		signal.Stop(sigCh)
	}()

	var resume *traffic.ServeCheckpoint
	if *resumePath != "" {
		var ck traffic.ServeCheckpoint
		if lerr := checkpoint.Load(*resumePath, checkpoint.KindServe, &ck); lerr != nil {
			return exitInternal, fmt.Errorf("resume: %w", lerr)
		}
		resume = &ck
		if *ckptPath == "" {
			// A resumed campaign keeps snapshotting where it left off.
			*ckptPath = *resumePath
		}
	}

	if *progress && observer == nil {
		// The status line reads shed/breaker gauges from the registry, so
		// -progress arms a private observer even without metrics flags.
		observer = obs.New()
	}

	cfg := traffic.ServeConfig{
		Spec:            spec,
		Seed:            *seed,
		Workers:         cliutil.ResolveWorkers(*workers),
		MaxRequests:     *maxRequests,
		Duration:        *duration,
		QueueDepth:      *queue,
		Speedup:         *speedup,
		Resilience:      resCfg,
		ChaosSeed:       *chaosSeed,
		Obs:             observer,
		Stop:            stop,
		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
		Resume:          resume,
		Restarts:        restartCount(),
		Flight:          flight,
	}
	if *progress {
		total := *maxRequests
		if total == 0 {
			total = spec.MaxRequests
		}
		cfg.Progress = progressLine(spec, observer, total)
	}
	if *crashAfter > 0 {
		// Crash injection for resume testing: die hard (no signal handler,
		// no final snapshot) once this incarnation has processed its quota.
		// The base is the resume cursor, so a restarted incarnation makes
		// progress before dying again instead of re-crashing in place.
		var base int64
		if resume != nil {
			base = resume.Processed
		}
		inner := cfg.Progress
		cfg.Progress = func(done int) {
			if inner != nil {
				inner(done)
			}
			if int64(done)-base >= int64(*crashAfter) {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}

	res, err := traffic.Serve(cfg)
	if *progress {
		// The status line ends in \r; terminate it before the summary.
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return exitInternal, err
	}
	if ferr := obsFlags.Finish(observer, srv, 0); ferr != nil && err == nil {
		err = ferr
	}

	printServe(*specPath, res)

	if *jsonPath != "" {
		rec := benchRecord{Bench: "serve", Spec: *specPath, ServeResult: res}
		if werr := cliutil.WriteJSON(*jsonPath, rec); werr != nil && err == nil {
			err = werr
		}
	}
	if flight != nil {
		sum := flight.Summary()
		// Self-check the retention contract: with no interesting-ring
		// eviction, every faulted request must have its trace retained.
		if sum.EvictedInteresting == 0 && sum.Faulted != res.Faults {
			return exitInternal, fmt.Errorf("flight recorder lost traces: %d faulted traces retained, %d faults accounted", sum.Faulted, res.Faults)
		}
		if *flightPath != "" {
			if werr := cliutil.WriteAtomic(*flightPath, flight.WriteJSONLines); werr != nil && err == nil {
				err = werr
			}
		}
	}
	if err != nil {
		return exitInternal, err
	}
	return exitOK, nil
}

// progressLine builds the -progress callback: a carriage-return status
// line (mirroring cmd/fuzz -progress) with throughput, shed totals, open
// breaker count and — for a bounded campaign — an ETA extrapolated from
// the processed fraction.
func progressLine(spec *traffic.Spec, o *obs.Observer, total int) func(int) {
	start := time.Now()
	return func(done int) {
		elapsed := time.Since(start)
		var shed float64
		open := 0
		for i := range spec.Clients {
			l := obs.L("class", spec.Clients[i].ID)
			for _, name := range []string{"traffic_shed", "traffic_shed_bucket", "traffic_shed_delay"} {
				if v, ok := o.Registry.Value(name, l); ok {
					shed += v
				}
			}
			// 2 = open (breakerOpen); half-open probes count as recovering.
			if v, ok := o.Registry.Value("traffic_breaker_state", l); ok && v == 2 {
				open++
			}
		}
		line := fmt.Sprintf("\rserve: %d processed (%.0f/sec) shed=%.0f breakers_open=%d",
			done, float64(done)/elapsed.Seconds(), shed, open)
		if total > 0 && done > 0 && done < total {
			eta := time.Duration(float64(elapsed) * float64(total-done) / float64(done))
			line += fmt.Sprintf(" eta=%s", eta.Round(time.Second))
		}
		fmt.Fprintf(os.Stderr, "%s      ", line)
	}
}

// printServe writes the human summary: the legacy line, a resilience line
// when that layer did anything, and the per-class table.
func printServe(specPath string, res *traffic.ServeResult) {
	fmt.Printf("serve: %s workers=%d elapsed=%.2fs generated=%d completed=%d faults=%d shed=%d misses=%d (%.0f req/sec, cache hit %.3f)\n",
		specPath, res.Workers, res.ElapsedSec, res.Generated, res.Completed,
		res.Faults, res.Shed, res.DeadlineMisses, res.RequestsPerSec, res.CacheHitRate)
	if res.Retries+res.BreakerTrips+res.Degradations+res.ShedDelay+res.ShedBucket+res.ChaosInjected+res.Abandoned > 0 {
		fmt.Printf("  resilience: goodput=%.0f/sec retries=%d (ok %d) breaker trips=%d rejected=%d degradations=%d recoveries=%d shed delay=%d bucket=%d abandoned=%d chaos=%d\n",
			res.GoodputPerSec, res.Retries, res.RetrySuccesses, res.BreakerTrips,
			res.BreakerRejected, res.Degradations, res.Recoveries,
			res.ShedDelay, res.ShedBucket, res.Abandoned, res.ChaosInjected)
	}
	for _, cs := range res.Classes {
		fmt.Printf("  class %-14s tool=%-16s completed=%-6d detected=%-4d shed=%-5d misses=%-5d p50=%dus p95=%dus p99=%dus\n",
			cs.Class, cs.Tool, cs.Completed, cs.Detected, cs.Shed, cs.DeadlineMisses,
			cs.P50us, cs.P95us, cs.P99us)
		if cs.Retries+cs.BreakerTrips+cs.Degradations > 0 || cs.DegradationLevel > 0 {
			fmt.Printf("        %-14s retries=%-4d trips=%-3d rejected=%-4d level=%d (down %d, up %d)\n",
				"", cs.Retries, cs.BreakerTrips, cs.BreakerRejected,
				cs.DegradationLevel, cs.Degradations, cs.Recoveries)
		}
	}
	for _, st := range res.SLO {
		status := "ok"
		if st.Exhausted {
			status = "EXHAUSTED"
		} else if st.P99Violated {
			status = "P99 VIOLATED"
		}
		fmt.Printf("  slo %-16s target=%.3f good=%d/%d budget_used=%.3f burn(short=%.2f long=%.2f) %s\n",
			st.Class, st.Target, st.Good, st.Total, st.BudgetUsed, st.BurnShort, st.BurnLong, status)
	}
	if res.Flight != nil {
		f := res.Flight
		fmt.Printf("  flight: retained=%d (interesting %d, sampled %d) faulted=%d retried=%d shed=%d evicted=%d\n",
			f.Retained, f.Interesting, f.SampledHealthy, f.Faulted, f.Retried, f.Shed, f.EvictedInteresting+f.EvictedSampled)
	}
	fmt.Printf("  stream digest %s\n", res.StreamDigest)
	if res.ChaosDigest != "" {
		fmt.Printf("  chaos digest %s (seed %d)\n", res.ChaosDigest, res.ChaosSeed)
	}
}

type overloadOpts struct {
	specPath  string
	seed      uint64
	workers   int
	res       *traffic.ResilienceConfig
	chaosSeed uint64
	queue     int
	jsonPath  string
	progress  bool
}

// runOverload drives the calibrate-and-sweep campaign and writes its
// record.
func runOverload(spec *traffic.Spec, observer *obs.Observer, srv *obs.Server, obsFlags *cliutil.ObsFlags, o overloadOpts) (int, error) {
	cfg := traffic.OverloadConfig{
		Spec:       spec,
		Seed:       o.seed,
		Workers:    o.workers,
		Resilience: o.res,
		ChaosSeed:  o.chaosSeed,
		QueueDepth: o.queue,
		Obs:        observer,
	}
	if o.progress {
		cfg.Progress = func(stage string) {
			fmt.Fprintf(os.Stderr, "serve: overload %s\n", stage)
		}
	}
	res, err := traffic.RunOverload(cfg)
	if err != nil {
		return exitInternal, err
	}
	if ferr := obsFlags.Finish(observer, srv, 0); ferr != nil && err == nil {
		err = ferr
	}

	fmt.Printf("overload: %s workers=%d capacity=%.0f req/sec (%d requests/point)\n",
		o.specPath, res.Workers, res.CapacityPerSec, res.Requests)
	for _, p := range res.Points {
		r := p.Result
		fmt.Printf("  %4gx offered=%-6.0f goodput=%-6.0f completed=%-5d shed=%-5d (delay %d, bucket %d) retries=%-4d trips=%-3d degradations=%d recoveries=%d\n",
			p.Multiple, p.OfferedPerSec, r.GoodputPerSec, r.Completed,
			r.Shed+r.ShedBucket+r.ShedDelay, r.ShedDelay, r.ShedBucket,
			r.Retries, r.BreakerTrips, r.Degradations, r.Recoveries)
	}

	if o.jsonPath != "" {
		rec := overloadRecord{Bench: "overload", Spec: o.specPath, OverloadResult: res}
		if werr := cliutil.WriteJSON(o.jsonPath, rec); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return exitInternal, err
	}
	return exitOK, nil
}

package main

import (
	_ "embed"
	"fmt"
	"time"

	"cecsan/internal/engine"
	"cecsan/internal/obs"
	"cecsan/internal/sanitizers"
	"cecsan/internal/traffic"
	"cecsan/prog"
)

// The serve workload serves the interactive/batch traffic mix through
// traffic.Serve, closed-loop, with one worker, the default queue, and the
// resilience layer, flight recorder and observer off. An op is one request.
// The seed is the ServeConfig seed: it picks the variant programs and the
// request stream.

//go:embed serve.yaml
var serveYAML string

const (
	serveSetups = 5
	// serveWarmRequests is the untimed warm-up Serve call's length.
	serveWarmRequests = 4096
	// serveRequests is the length of every measured Serve call.
	serveRequests = 32768
	// serveWindow is Serve's Progress stride: op times are the mean
	// request time of each window of this many requests.
	serveWindow = 256
)

// serveCall is one measured Serve call.
type serveCall struct {
	res  *traffic.ServeResult
	wall time.Duration
}

func serveConfig(spec *traffic.Spec, seed uint64, n int) traffic.ServeConfig {
	return traffic.ServeConfig{Spec: spec, Seed: seed, Workers: 1, MaxRequests: n}
}

// serveOnce runs one Serve call of n requests, recording the wall time of
// every serveWindow-request window into times when it is non-nil.
func serveOnce(cfg traffic.ServeConfig, times *opTimes) (serveCall, error) {
	var stamps []time.Time
	if times != nil {
		cfg.Progress = func(int) { stamps = append(stamps, time.Now()) }
	}
	start := time.Now()
	res, err := traffic.Serve(cfg)
	wall := time.Since(start)
	if err != nil {
		return serveCall{}, err
	}
	if times != nil {
		for i := 1; i < len(stamps); i++ {
			times.us = append(times.us, float64(stamps[i].Sub(stamps[i-1]).Nanoseconds())/1e3/serveWindow)
		}
		times.round(int(res.Completed), res.Elapsed)
	}
	return serveCall{res: res, wall: wall}, nil
}

// setupServe parses the spec and runs the untimed warm-up call.
func setupServe(seed uint64, t *tracer) (*traffic.Spec, error) {
	s := t.begin("input:traffic.Parse", noSpan, -1)
	spec, err := traffic.Parse(serveYAML)
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin("dispatch:traffic.Serve", noSpan, -1)
	_, err = traffic.Serve(serveConfig(spec, seed, serveWarmRequests))
	t.end(s)
	return spec, err
}

// serveRef is what a measured call must reproduce: the digest of the
// first n requests of the stream, and how many of them a sanitizer flags.
type serveRef struct {
	digest   string
	detected int64
	stream   *traffic.Stream
	engines  []*engine.Engine
}

// reference walks the request stream outside Serve and runs every variant
// it uses once on a standalone engine configured like the class's.
func reference(spec *traffic.Spec, seed uint64, n int, t *tracer) (*serveRef, error) {
	s := t.begin("input:traffic.NewStream", noSpan, -1)
	stream, err := traffic.NewStream(spec, seed)
	t.end(s)
	if err != nil {
		return nil, err
	}
	stream.SetLimit(n)
	ref := &serveRef{stream: stream}
	used := map[[2]int]int64{}
	for i := 0; i < n; i++ {
		req := stream.Next()
		used[[2]int{req.ClassIndex, req.Variant}]++
	}
	ref.digest = stream.Digest()
	for i := range spec.Clients {
		eng, err := classEngine(spec, i, seed, t)
		if err != nil {
			return nil, err
		}
		ref.engines = append(ref.engines, eng)
		for vi, v := range stream.Variants(i) {
			if used[[2]int{i, vi}] == 0 {
				continue
			}
			res, err := eng.Run(v.Program, v.Inputs...)
			if err != nil {
				return nil, err
			}
			switch {
			case res.Violation != nil:
				ref.detected += used[[2]int{i, vi}]
			case !res.Ok():
				return nil, fmt.Errorf("class %s variant %d does not run cleanly: fault %v, error %v", spec.Clients[i].ID, vi, res.Fault, res.Err)
			}
		}
	}
	return ref, nil
}

// classEngine builds an engine the way Serve builds class i's, without the
// wall-clock budget.
func classEngine(spec *traffic.Spec, i int, seed uint64, t *tracer) (*engine.Engine, error) {
	c := &spec.Clients[i]
	s := t.begin("engine:engine.New", noSpan, -1)
	defer t.end(s)
	return engine.New(sanitizers.Name(c.Tool), engine.Options{
		Workers:         1,
		MaxInstructions: c.Budget.MaxSteps,
		HeapBudget:      c.Budget.HeapBytes,
		Seed:            seed,
		RuntimeSeed:     seed,
	})
}

// check compares one call with the reference. A stream mismatch fails
// every request of the call; otherwise each request that was not completed,
// and each verdict off the reference count, fails.
func (ref *serveRef) check(o *outcome, c serveCall, n int) {
	r := c.res
	o.attempted += r.Generated
	if r.StreamDigest != ref.digest || r.Generated != int64(n) {
		o.fail(r.Generated, "serve stream: %d requests with digest %s, reference %d with %s", r.Generated, r.StreamDigest, n, ref.digest)
		return
	}
	notServed := r.Shed + r.ShedBucket + r.ShedDelay + r.Faults + r.Abandoned + r.BreakerRejected
	if lost := int64(n) - r.Completed; lost != 0 || notServed != 0 {
		o.fail(max(lost, -lost, notServed), "serve: %d of %d requests completed; %d shed, faulted, rejected or abandoned", r.Completed, n, notServed)
	}
	if d := r.Detected - ref.detected; d != 0 {
		o.fail(max(d, -d), "serve: %d detections, reference %d", r.Detected, ref.detected)
	}
}

// model compares every variant the reference uses with its native run.
func (ref *serveRef) model(spec *traffic.Spec) (*modelAcc, error) {
	native, err := engine.New(sanitizers.Native, engine.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	ma := newModelAcc()
	for i := range spec.Clients {
		for vi, v := range ref.stream.Variants(i) {
			nr, nd, err := timedRun(native, v.Program, v.Inputs)
			if err != nil {
				return nil, err
			}
			ir, id, err := timedRun(ref.engines[i], v.Program, v.Inputs)
			if err != nil {
				return nil, err
			}
			if !nr.Ok() || ir.Fault != nil || ir.Err != nil {
				return nil, fmt.Errorf("class %s variant %d: native ok=%v, instrumented fault %v, error %v", spec.Clients[i].ID, vi, nr.Ok(), ir.Fault, ir.Err)
			}
			ma.row(fmt.Sprintf("%s/%d", spec.Clients[i].ID, vi), ref.engines[i].Tool(), nr.Stats, ir.Stats, nd, id)
		}
	}
	return ma, nil
}

// runServe is the serve workload.
func runServe(cfg config) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, meta: map[string]any{}}
	t := newTracer(cfg.trace)
	var setups setupTimes
	var spec *traffic.Spec
	nSetups := serveSetups
	if cfg.trace {
		nSetups = 1
	}
	for i := 0; i < nSetups; i++ {
		heapLiveMB() // start every set-up from a collected heap
		start := time.Now()
		var err error
		if spec, err = setupServe(cfg.seed, t); err != nil {
			return nil, err
		}
		setups.add(time.Since(start))
	}
	o.meta["input"] = fmt.Sprintf("%d classes x %d variants, %d requests per Serve call", len(spec.Clients), spec.Clients[0].Program.Variants, serveRequests)
	if cfg.trace {
		return o, serveTraced(cfg, o, spec, t)
	}

	times := &opTimes{}
	var calls []serveCall
	var inCall []float64
	end := deadline(time.Now(), cfg.seconds)
	for len(calls) == 0 || time.Now().Before(end) {
		c, err := serveOnce(serveConfig(spec, cfg.seed, serveRequests), times)
		if err != nil {
			return nil, err
		}
		calls = append(calls, c)
		inCall = append(inCall, (c.wall - c.res.Elapsed).Seconds())
	}
	o.metrics["heap_live_mb"] = heapLiveMB()

	ref, err := reference(spec, cfg.seed, serveRequests, t)
	if err != nil {
		return nil, err
	}
	callMS := make([]float64, len(calls))
	for i, c := range calls {
		ref.check(o, c, serveRequests)
		callMS[i] = float64(c.res.Elapsed.Nanoseconds()) / 1e6
	}
	o.metrics["setup_s"] = setups.median() + median(inCall)
	times.report(o.metrics, o.meta)
	o.metrics["run_ms_geomean"] = median(callMS) // one cell: the Serve call
	o.metrics["good_frac"] = float64(o.attempted-o.failed) / float64(o.attempted)
	o.meta["stream_digest"] = ref.digest
	o.meta["serve_calls"] = len(calls)
	var misses int64
	for _, c := range calls {
		misses += c.res.DeadlineMisses
	}
	o.meta["deadline_misses"] = misses
	ma, err := ref.model(spec)
	if err != nil {
		return nil, err
	}
	ma.report(o.metrics, false)
	return o, nil
}

// serveTraced is the serve traced run: untraced Serve calls for the
// overhead baseline, then Serve calls with the flight recorder keeping
// every request trace (each request's Engine.Run becomes a child span of
// its Serve span) and an observer for the exact engine counters, then a
// standalone replay of the same requests with a span around every public
// call.
func serveTraced(cfg config, o *outcome, spec *traffic.Spec, t *tracer) error {
	m := o.metrics
	half := cfg.seconds / 2
	t.on = false
	ref, err := reference(spec, cfg.seed, serveRequests, t)
	if err != nil {
		return err
	}
	plain := &opTimes{}
	alloc0 := totalAlloc()
	end := deadline(time.Now(), half)
	for plain.ops == 0 || time.Now().Before(end) {
		c, err := serveOnce(serveConfig(spec, cfg.seed, serveRequests), plain)
		if err != nil {
			return err
		}
		ref.check(o, c, serveRequests)
	}
	m["engine.alloc_kb_per_op"] = float64(totalAlloc()-alloc0) / float64(plain.ops) / 1024
	m["op_p99_us"] = plain.p99()
	t.on = true

	var progs []*prog.Program
	var tools []sanitizers.Name
	for i, c := range spec.Clients {
		for _, v := range ref.stream.Variants(i) {
			progs = append(progs, v.Program)
			tools = append(tools, sanitizers.Name(c.Tool))
		}
	}
	if err := applyTimes(t, progs, tools, m); err != nil {
		return err
	}

	traced := &opTimes{}
	phaseStart := t.now()
	var excluded int64 // converting request traces is the benchmark's own work
	end = deadline(time.Now(), half)
	first := true
	for traced.ops == 0 || time.Now().Before(end) {
		sc := serveConfig(spec, cfg.seed, serveRequests)
		sc.Flight = obs.NewFlightRecorder(obs.FlightConfig{Budget: 4 * serveRequests, SampleN: 1})
		epoch := t.now()
		sc.Obs = obs.New()
		s := t.begin("dispatch:traffic.Serve", noSpan, int64(traced.ops))
		c, err := serveOnce(sc, nil)
		t.end(s)
		if err != nil {
			return err
		}
		ref.check(o, c, serveRequests)
		traced.round(int(c.res.Completed), c.res.Elapsed)
		conv := t.now()
		for _, rec := range sc.Flight.Records() {
			for _, ev := range rec.Events {
				if ev.Kind == "execute" {
					at := epoch + (rec.StartUS+ev.AtUS)*1000
					t.add("engine:Engine.Run", at, at+ev.DurUS*1000, s, int64(rec.Index))
				}
			}
		}
		if first {
			first = false
			serveCounts(m, spec, sc.Obs, c.res)
		}
		excluded += t.now() - conv
	}

	// Standalone replay of one call's requests on engines built like
	// Serve's.
	s := t.begin("input:traffic.NewStream", noSpan, -1)
	stream, err := traffic.NewStream(spec, cfg.seed)
	t.end(s)
	if err != nil {
		return err
	}
	stream.SetLimit(serveRequests)
	engines := make([]*engine.Engine, len(spec.Clients))
	for i := range spec.Clients {
		if engines[i], err = classEngine(spec, i, cfg.seed, t); err != nil {
			return err
		}
		var ps []*prog.Program
		for _, v := range stream.Variants(i) {
			ps = append(ps, v.Program)
		}
		s := t.begin("engine:Preinstrument", noSpan, -1)
		engines[i].Preinstrument(ps)
		t.end(s)
	}
	acc := &layerAcc{counting: true}
	replayStart := time.Now()
	for i := 0; i < serveRequests; i++ {
		s := t.begin("input:traffic.Next", noSpan, int64(i))
		req := stream.Next()
		t.end(s)
		res, _, _, err := tracedRun(t, "dispatch:standalone-request", engines[req.ClassIndex], req.Program, req.Inputs, int64(i), acc)
		if err != nil {
			return err
		}
		if res.Fault != nil || res.Err != nil {
			o.fail(0, "serve replay request %d: fault %v, error %v", i, res.Fault, res.Err)
		}
	}
	replay := time.Since(replayStart)
	phaseEnd := t.now()
	acc.report(m)
	if stream.Digest() != ref.digest {
		o.fail(0, "serve replay stream digest %s, reference %s", stream.Digest(), ref.digest)
	}

	o.meta["stream_digest"] = ref.digest
	sum := t.summarize(phaseStart, phaseEnd-excluded)
	m["input.build_ms"] = sum.named("input:traffic.NewStream").TotalS * 1000
	m["engine.preinstrument_s"] = sum.named("engine:Preinstrument").TotalS
	servePerReq := float64(plain.wallNS) / float64(plain.ops) / 1e3
	replayPerReq := sum.named("dispatch:standalone-request").TotalS / float64(acc.total().ops) * 1e6
	m["dispatch.loop_us"] = servePerReq - replayPerReq
	sum.report(m, overheadPct(plain, traced))
	ma, err := ref.model(spec)
	if err != nil {
		return err
	}
	ma.report(m, true)
	detail := map[string]any{
		"serve_us_per_request":      servePerReq,
		"replay_us_per_request":     float64(replay.Nanoseconds()) / serveRequests / 1e3,
		"serve_self_us_per_request": sum.named("dispatch:traffic.Serve").SelfS / float64(traced.ops) * 1e6,
		"request_trace_resolution":  "1us",
		"stream_digest":             ref.digest,
		"per_tool":                  acc.perTool(),
	}
	return t.write(cfg.out, fmt.Sprintf("serve-seed%d", cfg.seed), sum, detail)
}

// serveCounts fills the engine cache and traffic counts of one Serve call
// from its observer registry and result.
func serveCounts(m map[string]float64, spec *traffic.Spec, o *obs.Observer, r *traffic.ServeResult) {
	get := func(name, tool string) float64 {
		v, _ := o.Registry.Value(name, obs.L("tool", tool))
		return v
	}
	for _, k := range []string{"prefills", "hits", "misses", "overflows"} {
		var v float64
		for _, c := range spec.Clients {
			v += get("engine_cache_"+k, c.Tool)
		}
		m["engine.cache_"+k] = v
	}
	m["traffic.generated"] = float64(r.Generated)
	m["traffic.completed"] = float64(r.Completed)
	m["traffic.shed"] = float64(r.Shed + r.ShedBucket + r.ShedDelay)
	m["traffic.faults"] = float64(r.Faults)
	m["traffic.deadline_misses"] = float64(r.DeadlineMisses)
}

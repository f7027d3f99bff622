package traffic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cecsan/internal/checkpoint"
	"cecsan/internal/core"
	"cecsan/internal/engine"
	"cecsan/internal/faultinject"
	"cecsan/internal/interp"
	"cecsan/internal/obs"
	"cecsan/internal/sanitizers"
	"cecsan/prog"
)

// ServeConfig configures one campaign run.
type ServeConfig struct {
	// Spec is the validated workload spec.
	Spec *Spec
	// Seed, when nonzero, overrides the spec's seed.
	Seed uint64
	// Workers sizes the execution pool (<= 0 selects GOMAXPROCS).
	Workers int
	// MaxRequests, when nonzero, overrides the spec's max_requests bound.
	MaxRequests int
	// Duration, when nonzero, stops admission after this much wall time —
	// the bounded campaign mode CI smokes use.
	Duration time.Duration
	// QueueDepth sizes the admission queue (<= 0 = 4x workers). When the
	// producer runs open-loop (Speedup > 0) a full queue sheds the
	// request; closed-loop the producer blocks instead.
	QueueDepth int
	// Speedup > 0 replays the spec's virtual arrival schedule compressed
	// by that factor (open-loop: overload sheds). <= 0 runs closed-loop:
	// requests are admitted as fast as workers drain them, which is the
	// throughput-measurement mode.
	Speedup float64
	// Resilience, when set, arms the overload-resilience layer: CoDel-style
	// delay shedding, per-class token buckets (open-loop), bounded retries
	// with seeded backoff, per-class circuit breakers and the graceful-
	// degradation ladder. Nil serves every request through the same loop
	// with none of them: one attempt on the class engine, no shedding
	// beyond a full open-loop queue.
	Resilience *ResilienceConfig
	// ChaosSeed, when nonzero, arms the chaos campaign: each request's
	// injection derives from (ChaosSeed, stream index) via
	// faultinject.ChaosSchedule, and the campaign switches to per-class
	// ordered execution so its resilience accounting — summarized in
	// ChaosDigest — is byte-identical at any worker count (closed-loop).
	// Chaos implies Resilience (defaults when nil) and disarms the
	// wall-clock mechanisms, CoDel shedding and token buckets.
	ChaosSeed uint64
	// Obs, when set, registers per-class latency histograms, percentile
	// gauges and deadline/shed counters, and is passed to the engines.
	Obs *obs.Observer
	// Flight, when set, arms per-request lifecycle tracing: every generated
	// request carries a RequestTrace (deterministic ID from (seed, stream
	// index)) through admission, shedding, breaker decisions, retries and
	// engine execution, and the recorder tail-samples the finished traces.
	// Nil keeps the hot path branch-only. Chaos campaigns switch the
	// recorder to its deterministic interest classification so the retained
	// ID set is byte-identical across worker counts.
	Flight *obs.FlightRecorder
	// Stop, when set, ends admission early (signal handling in cmd/serve).
	Stop <-chan struct{}
	// Progress, when set, is called with the processed-request count every
	// 256 completions.
	Progress func(done int)
	// CheckpointPath, when set, arms periodic durable checkpointing: every
	// CheckpointEvery generated requests the producer pauses admission,
	// waits for every admitted request to reach terminal accounting (the
	// consistent cut), and atomically writes a versioned snapshot of the
	// stream position, per-class counters, histograms, breaker/ladder
	// state and digest chains. The barrier runs on the producer — never
	// inside workers — so checkpointing stays off the execution hot path.
	CheckpointPath string
	// CheckpointEvery is the number of generated requests between
	// snapshots (default 1000 when CheckpointPath is set).
	CheckpointEvery int
	// Resume, when set, restores a prior campaign's snapshot before
	// admission starts. It is validated against the spec fingerprint,
	// seed and chaos seed — a resumed campaign continues the exact same
	// deterministic stream, so its final digests are byte-identical to an
	// uninterrupted run.
	Resume *ServeCheckpoint
	// Restarts is how many times a supervisor has restarted this campaign
	// (informational; surfaced as the traffic_restarts gauge and in the
	// summary).
	Restarts int64
}

// ClassStats is one class's campaign accounting. Its request counters are
// the embedded ClassCounterState, the same fields a checkpoint carries.
type ClassStats struct {
	Class string `json:"class"`
	Tool  string `json:"tool"`
	ClassCounterState
	BreakerTrips     int64   `json:"breaker_trips"`
	BreakerRejected  int64   `json:"breaker_rejected"`
	Degradations     int64   `json:"degradations"`
	Recoveries       int64   `json:"recoveries"`
	DegradationLevel int     `json:"degradation_level"`
	P50us            int64   `json:"p50_us"`
	P95us            int64   `json:"p95_us"`
	P99us            int64   `json:"p99_us"`
	MeanLatencyUS    float64 `json:"mean_latency_us"`
}

// ServeResult is the campaign summary (the cmd/serve -json payload,
// minus the run metadata cmd/serve adds; BENCH_serve.json is its exact
// projection).
//
// Accounting invariants (chaos off or on):
//
//	generated = admitted + shed + shed_bucket
//	admitted  = completed + faults + breaker_rejected + shed_delay + abandoned
type ServeResult struct {
	Seed            uint64        `json:"seed"`
	Workers         int           `json:"workers"`
	Speedup         float64       `json:"speedup"`
	Elapsed         time.Duration `json:"-"`
	ElapsedSec      float64       `json:"elapsed_sec"`
	Generated       int64         `json:"generated"`
	Admitted        int64         `json:"admitted"`
	Shed            int64         `json:"shed"`
	ShedBucket      int64         `json:"shed_bucket"`
	ShedDelay       int64         `json:"shed_delay"`
	Completed       int64         `json:"completed"`
	Good            int64         `json:"good"`
	Faults          int64         `json:"faults"`
	Detected        int64         `json:"detected"`
	DeadlineMisses  int64         `json:"deadline_misses"`
	Abandoned       int64         `json:"abandoned"`
	Retries         int64         `json:"retries"`
	RetrySuccesses  int64         `json:"retry_successes"`
	BreakerTrips    int64         `json:"breaker_trips"`
	BreakerRejected int64         `json:"breaker_rejected"`
	Degradations    int64         `json:"degradations"`
	Recoveries      int64         `json:"recoveries"`
	ChaosInjected   int64         `json:"chaos_injected"`
	RequestsPerSec  float64       `json:"requests_per_sec"`
	GoodputPerSec   float64       `json:"goodput_per_sec"`
	CacheHitRate    float64       `json:"cache_hit_rate"`
	StreamDigest    string        `json:"stream_digest"`
	ChaosSeed       uint64        `json:"chaos_seed,omitempty"`
	ChaosDigest     string        `json:"chaos_digest,omitempty"`
	Checkpoints     int64         `json:"checkpoints,omitempty"`
	Restarts        int64         `json:"restarts,omitempty"`
	// Flight is the flight recorder's accounting (present when tracing was
	// armed); SLO is the per-class objective status (present when the spec
	// declared objectives).
	Flight  *obs.FlightSummary `json:"flight,omitempty"`
	SLO     []obs.SLOStatus    `json:"slo,omitempty"`
	Classes []ClassStats       `json:"classes"`
}

// classCounters is one class's live accounting. Counters are atomics
// because workers of every class share the pool; the histogram is the
// lock-free obs histogram.
type classCounters struct {
	generated      atomic.Int64
	admitted       atomic.Int64
	shed           atomic.Int64
	shedBucket     atomic.Int64
	shedDelay      atomic.Int64
	completed      atomic.Int64
	good           atomic.Int64
	faults         atomic.Int64
	detected       atomic.Int64
	deadlineMisses atomic.Int64
	abandoned      atomic.Int64
	retries        atomic.Int64
	retrySuccesses atomic.Int64
	chaosInjected  atomic.Int64
	lat            *obs.Histogram
}

// classState is one class's resilience machinery (nil members = mechanism
// disabled).
type classState struct {
	ladder  *ladder
	breaker *breaker
	bucket  *tokenBucket
	digest  *classDigest
}

// classDigest accumulates one class's chaos accounting chain: for every
// finalized request, in the class's deterministic stream order, it absorbs
// (stream index, outcome code, attempt count). Wall-clock-driven fields —
// latency, deadline misses, CoDel sheds — are deliberately excluded: they
// vary run to run, while everything the chain covers is a pure function of
// the request stream and the chaos schedule.
type classDigest struct {
	h hash.Hash
}

func newClassDigest(id string) *classDigest {
	h := sha256.New()
	h.Write([]byte(id))
	return &classDigest{h: h}
}

func (d *classDigest) record(idx uint64, code byte, attempts int) {
	var buf [10]byte
	binary.LittleEndian.PutUint64(buf[:8], idx)
	buf[8] = code
	buf[9] = byte(attempts)
	d.h.Write(buf[:])
}

// Outcome codes of the chaos digest chain.
const (
	outcomeClean    = 'C'
	outcomeDetected = 'D'
	outcomeFault    = 'F'
	outcomeRejected = 'R'
)

// queued is one admitted request plus its admission timestamp; latency is
// measured from admission, so queue wait counts against the deadline the
// way it would in a real serving system.
type queued struct {
	req *Request
	at  time.Time
	tr  *obs.RequestTrace // nil unless tracing is armed
}

// server carries one campaign's wiring between Serve and its loops.
type server struct {
	cfg       ServeConfig
	spec      *Spec
	seed      uint64
	workers   int
	depth     int
	rc        ResilienceConfig
	chaos     uint64
	engines   []*engine.Engine
	counters  []*classCounters
	classes   []*classState
	codel     *codel
	done      chan struct{}
	processed atomic.Int64

	// Observability v2 wiring: rec tail-samples finished request traces
	// (nil = tracing off, the branch-only default); slo/sloC evaluate the
	// spec-declared objectives (sloC is indexed by class, nil entries for
	// classes without one).
	rec  *obs.FlightRecorder
	slo  *obs.SLO
	sloC []*obs.SLOClass

	// Checkpoint machinery. admittedAll counts producer-side admissions,
	// finalized counts admitted requests that reached terminal accounting
	// in a worker; the barrier waits for them to meet. genSince and
	// ckptErr are producer-only.
	ckptEvery   int
	genSince    int
	admittedAll atomic.Int64
	finalized   atomic.Int64
	checkpoints atomic.Int64
	ckptErr     error
}

// Serve runs a campaign: a single producer walks the deterministic
// request stream and admits into bounded queues; consumers drain them
// through per-class engines sharing one instrumentation cache (see run for
// the two queue topologies).
// The request stream (and its digest) is independent of Workers,
// QueueDepth, Speedup and every resilience decision — the digest is taken
// as requests are generated, before any admission or shedding choice.
func Serve(cfg ServeConfig) (*ServeResult, error) {
	spec := cfg.Spec
	stream, err := NewStream(spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.MaxRequests > 0 {
		stream.SetLimit(cfg.MaxRequests)
	}
	seed := spec.Seed
	if cfg.Seed != 0 {
		seed = cfg.Seed
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 4 * workers
	}

	s := &server{
		cfg:     cfg,
		spec:    spec,
		seed:    seed,
		workers: workers,
		depth:   depth,
		chaos:   cfg.ChaosSeed,
		done:    make(chan struct{}),
		rec:     cfg.Flight,
	}
	if s.rec != nil && s.chaos != 0 {
		// Chaos campaigns promise a worker-count-independent retained set:
		// restrict the recorder's interest rules to deterministic signals,
		// mirroring the chaos digest's exclusion of wall-clock fields.
		s.rec.SetDeterministicOnly(true)
	}
	s.sloC = make([]*obs.SLOClass, len(spec.Clients))
	res := cfg.Resilience
	if s.chaos != 0 && res == nil {
		res = &ResilienceConfig{}
	}
	if res != nil {
		s.rc = res.resolve()
		if s.chaos == 0 {
			s.codel = newCoDel(s.rc)
		}
	} else {
		// No resilience layer: one attempt per request on the class engine.
		s.rc.RetryMax = -1
	}

	// One engine per class carries that class's budgets; all classes share
	// one campaign cache so cross-class variants of the same program (if
	// any) and repeat requests hit instrumentation cache. Ladder rungs
	// share the same cache: rungs with identical instrumentation profiles
	// share entries, cheaper rungs fill their own.
	cache := engine.NewCache(0)
	s.engines = make([]*engine.Engine, len(spec.Clients))
	s.counters = make([]*classCounters, len(spec.Clients))
	s.classes = make([]*classState, len(spec.Clients))
	for i := range spec.Clients {
		c := &spec.Clients[i]
		mk := func(tool sanitizers.Name, cecsan *core.Options) (*engine.Engine, error) {
			return engine.New(tool, engine.Options{
				CECSan:          cecsan,
				Workers:         workers,
				MaxInstructions: c.Budget.MaxSteps,
				WallBudget:      time.Duration(c.Budget.WallMS * float64(time.Millisecond)),
				HeapBudget:      c.Budget.HeapBytes,
				Seed:            seed,
				RuntimeSeed:     seed,
				Obs:             cfg.Obs,
				Cache:           cache,
			})
		}
		eng, err := mk(sanitizers.Name(c.Tool), nil)
		if err != nil {
			return nil, fmt.Errorf("traffic: client %q: %w", c.ID, err)
		}
		s.engines[i] = eng
		cc := &classCounters{}
		if cfg.Obs != nil {
			cc.lat = cfg.Obs.Registry.Histogram("traffic_latency_us", obs.L("class", c.ID))
		} else {
			cc.lat = &obs.Histogram{}
		}
		s.counters[i] = cc
		if c.SLO != nil {
			if s.slo == nil {
				s.slo = obs.NewSLO()
			}
			s.sloC[i] = s.slo.Add(obs.SLOConfig{
				Class:          c.ID,
				Target:         c.SLO.Target,
				P99ObjectiveUS: int64(c.SLO.P99MS * 1000),
				ShortWindow:    time.Duration(c.SLO.ShortWindowS * float64(time.Second)),
				LongWindow:     time.Duration(c.SLO.LongWindowS * float64(time.Second)),
			}, cc.lat)
		}

		cls := &classState{}
		if res != nil {
			// The full rung shares the class engine, so a campaign with
			// and without resilience runs identical configurations.
			lad, err := buildLadder(sanitizers.Name(c.Tool), s.rc, mk)
			if err != nil {
				return nil, fmt.Errorf("traffic: client %q: %w", c.ID, err)
			}
			lad.rungs[0].eng = eng
			cls.ladder = lad
			cls.breaker = newBreaker(s.rc)
			if s.chaos == 0 && cfg.Speedup > 0 && s.rc.BucketHeadroom > 0 {
				share := c.RateFraction * spec.AggregateRate * cfg.Speedup
				rate := share * s.rc.BucketHeadroom
				// Burst absorbs ~20ms of the class's allowance: pacing
				// overshoot arrives in timer-granularity bursts that are
				// jitter, not overload, and must not drain the bucket.
				burst := rate * 0.02
				if burst < float64(depth) {
					burst = float64(depth)
				}
				cls.bucket = newTokenBucket(rate, burst)
			}
		}
		if s.chaos != 0 {
			cls.digest = newClassDigest(c.ID)
		}
		s.classes[i] = cls
		if cfg.Obs != nil {
			registerClassGauges(cfg.Obs, c.ID, cc, cls)
		}

		// Warm the instrumentation cache with the class's whole variant
		// family before admission starts, like a service pre-loading its
		// handlers.
		progs := make([]*prog.Program, 0, c.Program.Variants)
		for _, v := range stream.Variants(i) {
			progs = append(progs, v.Program)
		}
		eng.Preinstrument(progs)
	}

	if cfg.CheckpointPath != "" {
		s.ckptEvery = cfg.CheckpointEvery
		if s.ckptEvery <= 0 {
			s.ckptEvery = defaultCheckpointEvery
		}
	}
	if cfg.Resume != nil {
		if err := s.restore(stream, cfg.Resume); err != nil {
			return nil, err
		}
	}
	if cfg.Obs != nil {
		reg := cfg.Obs.Registry
		reg.GaugeFunc("traffic_checkpoints", func() float64 { return float64(s.checkpoints.Load()) })
		reg.GaugeFunc("traffic_restarts", func() float64 { return float64(cfg.Restarts) })
		if s.slo != nil {
			s.slo.Register(reg)
			cfg.Obs.SLO = s.slo
		}
		// Every class's variant family is preinstrumented: the service can
		// usefully answer, so the live endpoint's /readyz flips to ready.
		cfg.Obs.Health.SetReady(true)
	}

	var closeOnce sync.Once
	stop := func() { closeOnce.Do(func() { close(s.done) }) }
	if cfg.Duration > 0 {
		t := time.AfterFunc(cfg.Duration, stop)
		defer t.Stop()
	}
	if cfg.Stop != nil {
		go func() {
			select {
			case <-cfg.Stop:
				stop()
			case <-s.done:
			}
		}()
	}

	start := time.Now()
	s.run(stream, start)
	elapsed := time.Since(start)
	stop()
	if s.ckptErr != nil {
		// A campaign that cannot persist its promised snapshots must fail
		// loudly, not degrade into an uncheckpointed run.
		return nil, s.ckptErr
	}

	return s.collect(stream, elapsed), nil
}

// defaultCheckpointEvery is the snapshot cadence in generated requests.
const defaultCheckpointEvery = 1000

// maybeCheckpoint runs the producer-side snapshot cadence: called after
// every generated request, it triggers the barrier once ckptEvery requests
// have accumulated. Returns false when the producer must stop (stop signal
// during the drain, or a snapshot write failure).
func (s *server) maybeCheckpoint(stream *Stream) bool {
	if s.ckptEvery == 0 {
		return true
	}
	s.genSince++
	if s.genSince < s.ckptEvery {
		return true
	}
	s.genSince = 0
	return s.checkpointNow(stream)
}

// checkpointNow is the consistent-cut barrier. Admission is paused (the
// producer is right here, not producing); once every admitted request has
// reached terminal accounting the campaign state is a pure function of the
// request stream — no request is in flight between generation and its
// outcome — and the snapshot is captured and written durably.
func (s *server) checkpointNow(stream *Stream) bool {
	for s.finalized.Load() != s.admittedAll.Load() {
		select {
		case <-s.done:
			return false
		default:
			time.Sleep(50 * time.Microsecond)
		}
	}
	// A stop during (or just before) the drain means workers may have
	// finalized queued requests as abandoned — those are excluded from the
	// digest chains, so a snapshot taken now would lose them permanently.
	// The abandon path only runs after s.done is closed, and that close is
	// visible here once any abandon's finalized increment is, so refusing
	// on a closed s.done keeps every written snapshot a consistent cut.
	select {
	case <-s.done:
		return false
	default:
	}
	ck, err := s.capture(stream)
	if err == nil {
		err = checkpoint.Save(s.cfg.CheckpointPath, checkpoint.KindServe, ck)
	}
	if err != nil {
		s.ckptErr = fmt.Errorf("traffic: checkpoint: %w", err)
		return false
	}
	s.checkpoints.Add(1)
	return true
}

// run is the campaign's one serve loop. A single producer owns pacing,
// token-bucket and queue-full shedding, admission and the checkpoint
// cadence; consumers hand every admitted request to consume. The two modes
// differ only in queue topology:
//
//   - Without chaos, every class shares one queue drained by Workers
//     consumers, so any idle worker takes the next request.
//   - With chaos, each class gets its own queue drained by exactly one
//     consumer, and a semaphore of Workers slots bounds simultaneous
//     execution. A class's requests — and therefore its breaker
//     transitions, retries and ladder moves — then happen in stream order
//     at any worker count, which is what makes the chaos digest
//     byte-identical. The price is concurrency capped at the number of
//     classes, which is why ordered dispatch is not the default.
func (s *server) run(stream *Stream, start time.Time) {
	nq, consumers := 1, s.workers
	var sem chan struct{}
	if s.chaos != 0 {
		nq, consumers = len(s.spec.Clients), 1
		sem = make(chan struct{}, s.workers)
	}
	queues := make([]chan queued, nq)
	for i := range queues {
		queues[i] = make(chan queued, s.depth)
	}
	var wg sync.WaitGroup
	for _, ch := range queues {
		for w := 0; w < consumers; w++ {
			wg.Add(1)
			go func(ch <-chan queued) {
				defer wg.Done()
				for q := range ch {
					s.consume(q, sem)
				}
			}(ch)
		}
	}

producer:
	for {
		select {
		case <-s.done:
			break producer
		default:
		}
		req := stream.Next()
		if req == nil {
			break
		}
		ci := req.ClassIndex
		cc := s.counters[ci]
		cc.generated.Add(1)
		tr := s.newTrace(req)
		ch := queues[0]
		if sem != nil {
			ch = queues[ci]
		}
		if s.cfg.Speedup > 0 {
			target := start.Add(time.Duration(float64(req.Arrival) / s.cfg.Speedup))
			if d := time.Until(target); d > 0 {
				select {
				case <-s.done:
					break producer
				case <-time.After(d):
				}
			}
		}
		if b := s.classes[ci].bucket; b != nil && !b.allow(time.Now()) {
			// Class over its burst allowance: shed at its own bucket
			// before it can crowd the shared queue.
			cc.shedBucket.Add(1)
			s.recordSLO(ci, false)
			s.finishTrace(tr, obs.OutcomeShedBucket)
		} else if !s.admit(ch, req, tr) {
			break producer
		}
		if !s.maybeCheckpoint(stream) {
			break producer
		}
	}
	for _, ch := range queues {
		close(ch)
	}
	wg.Wait()
}

// admit sends one request into its queue. Open-loop a full queue sheds the
// request; closed-loop the producer blocks until a consumer takes it. It
// returns false when the campaign stopped while the producer was blocked.
func (s *server) admit(ch chan<- queued, req *Request, tr *obs.RequestTrace) bool {
	cc := s.counters[req.ClassIndex]
	// The admit event goes on before the send: a delivered trace belongs to
	// the consumer. If the send fails the producer still owns it and pops
	// the event back off.
	if tr != nil {
		tr.Add("admit")
	}
	q := queued{req: req, at: time.Now(), tr: tr}
	if s.cfg.Speedup > 0 {
		select {
		case ch <- q:
		default:
			// Queue full under overload: shed instead of building an
			// unbounded backlog.
			cc.shed.Add(1)
			s.recordSLO(req.ClassIndex, false)
			if tr != nil {
				tr.Events = tr.Events[:len(tr.Events)-1]
			}
			s.finishTrace(tr, obs.OutcomeShedQueue)
			return true
		}
	} else {
		select {
		case ch <- q:
		case <-s.done:
			return false
		}
	}
	cc.admitted.Add(1)
	s.admittedAll.Add(1)
	return true
}

// consume is every consumer's per-request body. Once the campaign is
// stopped it fast-drains the backlog as abandoned, so shutdown latency is
// bounded by in-flight runs, not by a saturated backlog; stop is
// wall-clock territory, so abandoned requests stay out of the chaos chain.
// sem, when set, bounds simultaneous execution across per-class consumers.
func (s *server) consume(q queued, sem chan struct{}) {
	ci := q.req.ClassIndex
	cc := s.counters[ci]
	select {
	case <-s.done:
		cc.abandoned.Add(1)
		s.finishTrace(q.tr, obs.OutcomeAbandoned)
		s.finalized.Add(1)
		return
	default:
	}
	if s.codel != nil {
		if now := time.Now(); s.codel.shed(now, now.Sub(q.at)) {
			cc.shedDelay.Add(1)
			s.recordSLO(ci, false)
			s.finishTrace(q.tr, obs.OutcomeShedDelay)
			s.finalized.Add(1)
			return
		}
	}
	if sem != nil {
		sem <- struct{}{}
	}
	code, attempts := s.process(ci, q, faultinject.ChaosSchedule(s.chaos, uint64(q.req.Index)))
	if sem != nil {
		<-sem
	}
	if d := s.classes[ci].digest; d != nil {
		d.record(uint64(q.req.Index), code, attempts)
	}
	s.progress()
	s.finalized.Add(1)
}

// process executes one admitted request and accounts it: breaker gate,
// chaos arming on the first attempt, bounded retries with seeded backoff,
// ladder-selected engine — each a no-op when the campaign did not arm it.
// A sanitizer detection counts as completed (the service answered); only
// harness faults (panic, budget exhaustion) and engine errors do not. It
// returns the digest outcome.
func (s *server) process(ci int, q queued, chaos faultinject.ChaosPlan) (code byte, attempts int) {
	cc := s.counters[ci]
	cls := s.classes[ci]
	tr := q.tr
	if tr != nil {
		ev := tr.Add("dequeue")
		ev.DurUS = time.Since(q.at).Microseconds()
	}
	if cls.breaker != nil && !cls.breaker.allow() {
		if tr != nil {
			tr.Add("breaker_reject")
		}
		s.recordSLO(ci, false)
		s.finishTrace(tr, obs.OutcomeRejected)
		return outcomeRejected, 0
	}
	if !chaos.Zero() {
		cc.chaosInjected.Add(1)
	}
	armed := chaos
	for {
		attempts++
		if armed.SlowdownUS > 0 {
			time.Sleep(time.Duration(armed.SlowdownUS) * time.Microsecond)
		}
		eng := s.engines[ci]
		rungName := "full"
		if cls.ladder != nil {
			eng, rungName = cls.ladder.engineRung()
		}
		var execStart time.Time
		if tr != nil {
			ev := tr.Add("attempt")
			ev.Attempt = attempts
			ev.Detail = rungName
			execStart = time.Now()
		}
		res, err := eng.RunPlanned(q.req.Program, engine.PlannedRun{
			Plan:        armed.Run,
			BypassCache: armed.CacheBypass,
			Trace:       tr,
		}, q.req.Inputs...)
		if tr != nil {
			tr.Span("execute", execStart, time.Since(execStart))
		}
		fault := err != nil || res == nil || res.Err != nil
		if cls.breaker != nil {
			if cls.breaker.record(fault) && cls.ladder != nil {
				cls.ladder.onTrip()
			}
		}
		if fault && attempts <= s.rc.RetryMax && s.rc.RetryMax >= 0 && retryable(armed, res, err) {
			cc.retries.Add(1)
			d := backoffUS(s.rc, s.seed, uint64(q.req.Index), attempts)
			if tr != nil {
				ev := tr.Add("retry")
				ev.Attempt = attempts
				ev.ValueUS = d
				ev.Detail = faultDetail(err, res)
			}
			if d > 0 {
				time.Sleep(time.Duration(d) * time.Microsecond)
			}
			// A transient cleared: the retry runs with the plan dropped.
			armed = faultinject.ChaosPlan{}
			continue
		}
		lat := time.Since(q.at)
		cc.lat.Observe(lat.Microseconds())
		missed := q.req.Deadline > 0 && lat > q.req.Deadline
		if missed {
			cc.deadlineMisses.Add(1)
		}
		if tr != nil {
			tr.Attempts = attempts
			tr.Retried = attempts > 1
			tr.DeadlineMiss = missed
		}
		if fault {
			cc.faults.Add(1)
			if cls.ladder != nil {
				cls.ladder.onFault()
			}
			if tr != nil {
				tr.Add("fault").Detail = faultDetail(err, res)
			}
			s.recordSLO(ci, false)
			s.finishTrace(tr, obs.OutcomeFault)
			return outcomeFault, attempts
		}
		cc.completed.Add(1)
		if !missed {
			cc.good.Add(1)
		}
		if attempts > 1 {
			cc.retrySuccesses.Add(1)
		}
		if cls.ladder != nil {
			cls.ladder.onClean()
		}
		s.recordSLO(ci, !missed)
		if res.Violation != nil {
			cc.detected.Add(1)
			s.finishTrace(tr, obs.OutcomeDetected)
			return outcomeDetected, attempts
		}
		s.finishTrace(tr, obs.OutcomeClean)
		return outcomeClean, attempts
	}
}

// faultDetail classifies a failed execution for trace annotations: the
// engine fault class when one is attached, otherwise a coarse bucket.
func faultDetail(err error, res *interp.Result) string {
	if err != nil {
		return "engine_error"
	}
	if res == nil {
		return "no_result"
	}
	if fo := engine.AsFault(res.Err); fo != nil {
		return fo.Class.String()
	}
	return "error"
}

func (s *server) progress() {
	n := s.processed.Add(1)
	if s.cfg.Progress != nil && n%256 == 0 {
		s.cfg.Progress(int(n))
	}
}

// newTrace starts a lifecycle trace for req when tracing is armed; nil
// otherwise, keeping every downstream touch a single branch.
func (s *server) newTrace(req *Request) *obs.RequestTrace {
	if s.rec == nil {
		return nil
	}
	return obs.NewRequestTrace(s.seed, uint64(req.Index), req.Class)
}

// finishTrace hands a trace to the flight recorder with its terminal
// outcome. The trace must not be touched afterwards.
func (s *server) finishTrace(tr *obs.RequestTrace, outcome string) {
	if tr != nil {
		s.rec.Finish(tr, outcome)
	}
}

// recordSLO accounts one terminal service decision against the class
// objective. Abandoned requests are deliberately excluded — they are a
// stop-drain artifact of campaign shutdown, not a serving decision, and
// counting them would burn the budget on the way out.
func (s *server) recordSLO(ci int, good bool) {
	if c := s.sloC[ci]; c != nil {
		c.Record(good)
	}
}

// collect assembles the campaign summary.
func (s *server) collect(stream *Stream, elapsed time.Duration) *ServeResult {
	res := &ServeResult{
		Seed:         s.seed,
		Workers:      s.workers,
		Speedup:      s.cfg.Speedup,
		Elapsed:      elapsed,
		ElapsedSec:   elapsed.Seconds(),
		StreamDigest: stream.Digest(),
		ChaosSeed:    s.chaos,
		Checkpoints:  s.checkpoints.Load(),
		Restarts:     s.cfg.Restarts,
	}
	var hits, misses int64
	for _, eng := range s.engines {
		st := eng.Stats()
		hits += st.CacheHits
		misses += st.CacheMisses
	}
	if hits+misses > 0 {
		res.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	combined := sha256.New()
	for i := range s.spec.Clients {
		c := &s.spec.Clients[i]
		cc := s.counters[i]
		cls := s.classes[i]
		cs := ClassStats{
			Class:             c.ID,
			Tool:              c.Tool,
			ClassCounterState: cc.export(),
			P50us:             cc.lat.Quantile(0.50),
			P95us:             cc.lat.Quantile(0.95),
			P99us:             cc.lat.Quantile(0.99),
		}
		if cls.breaker != nil {
			cs.BreakerTrips = cls.breaker.trips.Load()
			cs.BreakerRejected = cls.breaker.rejected.Load()
		}
		if cls.ladder != nil {
			cs.Degradations = cls.ladder.degradations.Load()
			cs.Recoveries = cls.ladder.recoveries.Load()
			cs.DegradationLevel = int(cls.ladder.levelG.Load())
		}
		if n := cc.lat.Count(); n > 0 {
			cs.MeanLatencyUS = float64(cc.lat.Sum()) / float64(n)
		}
		if cls.digest != nil {
			combined.Write(cls.digest.h.Sum(nil))
		}
		res.Classes = append(res.Classes, cs)
		res.Generated += cs.Generated
		res.Admitted += cs.Admitted
		res.Shed += cs.Shed
		res.ShedBucket += cs.ShedBucket
		res.ShedDelay += cs.ShedDelay
		res.Completed += cs.Completed
		res.Good += cs.Good
		res.Faults += cs.Faults
		res.Detected += cs.Detected
		res.DeadlineMisses += cs.DeadlineMisses
		res.Abandoned += cs.Abandoned
		res.Retries += cs.Retries
		res.RetrySuccesses += cs.RetrySuccesses
		res.BreakerTrips += cs.BreakerTrips
		res.BreakerRejected += cs.BreakerRejected
		res.Degradations += cs.Degradations
		res.Recoveries += cs.Recoveries
		res.ChaosInjected += cs.ChaosInjected
	}
	if s.chaos != 0 {
		res.ChaosDigest = hex.EncodeToString(combined.Sum(nil))
	}
	if elapsed > 0 {
		res.RequestsPerSec = float64(res.Completed+res.Faults) / elapsed.Seconds()
		res.GoodputPerSec = float64(res.Good) / elapsed.Seconds()
	}
	if s.rec != nil {
		sum := s.rec.Summary()
		res.Flight = &sum
	}
	if s.slo != nil {
		res.SLO = s.slo.Status()
	}
	return res
}

// registerClassGauges mirrors a class's counters, resilience state and
// latency percentiles into the obs registry, so a live /metrics scrape sees
// the campaign: admission sheds, breaker state and ladder level included.
func registerClassGauges(o *obs.Observer, id string, cc *classCounters, cls *classState) {
	l := obs.L("class", id)
	reg := o.Registry
	gauge := func(name string, fn func() int64) {
		reg.GaugeFunc(name, func() float64 { return float64(fn()) }, l)
	}
	gauge("traffic_generated", cc.generated.Load)
	gauge("traffic_admitted", cc.admitted.Load)
	gauge("traffic_shed", cc.shed.Load)
	gauge("traffic_shed_bucket", cc.shedBucket.Load)
	gauge("traffic_shed_delay", cc.shedDelay.Load)
	gauge("traffic_completed", cc.completed.Load)
	gauge("traffic_good", cc.good.Load)
	gauge("traffic_faults", cc.faults.Load)
	gauge("traffic_detected", cc.detected.Load)
	gauge("traffic_deadline_misses", cc.deadlineMisses.Load)
	gauge("traffic_abandoned", cc.abandoned.Load)
	gauge("traffic_retries", cc.retries.Load)
	gauge("traffic_retry_successes", cc.retrySuccesses.Load)
	gauge("traffic_chaos_injected", cc.chaosInjected.Load)
	gauge("traffic_latency_p50_us", func() int64 { return cc.lat.Quantile(0.50) })
	gauge("traffic_latency_p95_us", func() int64 { return cc.lat.Quantile(0.95) })
	gauge("traffic_latency_p99_us", func() int64 { return cc.lat.Quantile(0.99) })
	if cls.breaker != nil {
		gauge("traffic_breaker_trips", cls.breaker.trips.Load)
		gauge("traffic_breaker_rejected", cls.breaker.rejected.Load)
		gauge("traffic_breaker_state", func() int64 { return int64(cls.breaker.stateG.Load()) })
	}
	if cls.ladder != nil {
		gauge("traffic_degradations", cls.ladder.degradations.Load)
		gauge("traffic_recoveries", cls.ladder.recoveries.Load)
		gauge("traffic_degradation_level", func() int64 { return int64(cls.ladder.levelG.Load()) })
	}
}

package traffic

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cecsan/internal/core"
	"cecsan/internal/engine"
	"cecsan/internal/faultinject"
	"cecsan/internal/interp"
	"cecsan/internal/sanitizers"
	"cecsan/internal/splitmix"
)

// ResilienceConfig tunes the overload-resilience layer: adaptive admission,
// the retry policy, per-class circuit breakers and the graceful-degradation
// ladder. The zero value selects the documented defaults; -1 disables the
// corresponding mechanism (0 never means "off", so a partially filled config
// still gets sane behaviour everywhere else).
type ResilienceConfig struct {
	// BreakerWindow is the sliding window of recent execution attempts a
	// class's circuit breaker evaluates (default 24).
	BreakerWindow int
	// BreakerThreshold is the fault rate over a full window that trips the
	// breaker open (default 0.3).
	BreakerThreshold float64
	// BreakerCooldown is how many requests the breaker rejects while open
	// before letting one probe through half-open. Counting requests rather
	// than wall time keeps the state machine deterministic under the chaos
	// campaign (default 12). -1 disables breakers.
	BreakerCooldown int
	// RetryMax bounds retries per request (default 2, -1 disables retries).
	RetryMax int
	// RetryBaseUS is the exponential-backoff base delay in microseconds
	// (default 500); RetryCapUS caps it (default 10_000).
	RetryBaseUS int64
	RetryCapUS  int64
	// LadderTrips is how many breaker trips at the current rung step a
	// class one rung down the degradation ladder (default 2, -1 freezes
	// the ladder at full hardening).
	LadderTrips int
	// LadderRecovery is how many consecutive clean completions step a
	// degraded class one rung back up (default 48).
	LadderRecovery int
	// CoDelTargetUS is the queue-delay target of the CoDel-style admission
	// controller: requests are shed only when dequeue delay stays above
	// the target for a full control interval (default 5_000). -1 disables
	// delay-based shedding. The controller is wall-clock driven and is
	// therefore not armed in the deterministic chaos mode.
	CoDelTargetUS int64
	// CoDelIntervalUS is the CoDel control interval (default 50_000).
	CoDelIntervalUS int64
	// BucketHeadroom scales each class's open-loop token-bucket rate above
	// its fair share of the offered load (default 1.5): a class may burst
	// to headroom x its share, beyond which its requests are shed before
	// admission instead of starving other classes. -1 disables buckets.
	BucketHeadroom float64
}

// Resilience defaults (see ResilienceConfig).
const (
	defaultBreakerWindow   = 24
	defaultBreakerThresh   = 0.3
	defaultBreakerCooldown = 12
	defaultRetryMax        = 2
	defaultRetryBaseUS     = 500
	defaultRetryCapUS      = 10_000
	defaultLadderTrips     = 2
	defaultLadderRecovery  = 48
	defaultCoDelTargetUS   = 5_000
	defaultCoDelIntervalUS = 50_000
	defaultBucketHeadroom  = 1.5
)

// resolve fills defaults and normalizes the -1 sentinels into usable values
// (disabled mechanisms keep the sentinel; callers test for it).
func (c ResilienceConfig) resolve() ResilienceConfig {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.BreakerWindow, defaultBreakerWindow)
	def(&c.BreakerCooldown, defaultBreakerCooldown)
	def(&c.RetryMax, defaultRetryMax)
	def(&c.LadderTrips, defaultLadderTrips)
	def(&c.LadderRecovery, defaultLadderRecovery)
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = defaultBreakerThresh
	}
	if c.RetryBaseUS == 0 {
		c.RetryBaseUS = defaultRetryBaseUS
	}
	if c.RetryCapUS == 0 {
		c.RetryCapUS = defaultRetryCapUS
	}
	if c.CoDelTargetUS == 0 {
		c.CoDelTargetUS = defaultCoDelTargetUS
	}
	if c.CoDelIntervalUS == 0 {
		c.CoDelIntervalUS = defaultCoDelIntervalUS
	}
	if c.BucketHeadroom == 0 {
		c.BucketHeadroom = defaultBucketHeadroom
	}
	return c
}

// Circuit-breaker states, in gauge encoding (traffic_breaker_state).
const (
	breakerClosed int32 = iota
	breakerHalfOpen
	breakerOpen
)

// breaker is one class's circuit breaker. It watches a sliding window of
// execution-attempt outcomes; when a full window's fault rate reaches the
// threshold it opens and rejects requests outright — the class is failing
// fast instead of burning workers on doomed runs. After cooldown rejected
// requests it half-opens, letting exactly one probe through: a clean probe
// closes it, a faulted probe re-opens it. All state transitions are driven
// by request counts and outcomes, never wall time, so a fixed outcome
// sequence walks a fixed state sequence — the property the chaos campaign's
// byte-determinism rests on.
type breaker struct {
	threshold float64
	cooldown  int

	mu       sync.Mutex
	window   []bool // ring buffer, true = fault
	filled   int
	idx      int
	faults   int
	state    int32
	coolLeft int
	probing  bool

	trips    atomic.Int64
	rejected atomic.Int64
	stateG   atomic.Int32 // lock-free mirror for the state gauge
}

func newBreaker(cfg ResilienceConfig) *breaker {
	if cfg.BreakerCooldown < 0 {
		return nil
	}
	return &breaker{
		threshold: cfg.BreakerThreshold,
		cooldown:  cfg.BreakerCooldown,
		window:    make([]bool, cfg.BreakerWindow),
	}
}

// allow reports whether a request may execute. A false return means the
// breaker rejected it (counted); the caller must not run it.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		b.coolLeft--
		if b.coolLeft <= 0 {
			b.state = breakerHalfOpen
			b.stateG.Store(breakerHalfOpen)
			b.probing = true
			return true // this request is the half-open probe
		}
		b.rejected.Add(1)
		return false
	default: // half-open
		if !b.probing {
			b.probing = true
			return true
		}
		b.rejected.Add(1)
		return false
	}
}

// record folds one execution attempt's outcome in and reports whether it
// tripped the breaker (the caller feeds trips to the degradation ladder).
func (b *breaker) record(fault bool) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.probing = false
		if fault {
			b.trip()
			return true
		}
		// Probe came back clean: close on a fresh window.
		b.clearWindow()
		b.state = breakerClosed
		b.stateG.Store(breakerClosed)
		return false
	case breakerOpen:
		// A request admitted just before a concurrent trip: its outcome
		// arrives while open. Nothing to learn — the window restarts on
		// the next close anyway.
		return false
	}
	if b.filled == len(b.window) {
		if b.window[b.idx] {
			b.faults--
		}
	} else {
		b.filled++
	}
	b.window[b.idx] = fault
	if fault {
		b.faults++
	}
	b.idx = (b.idx + 1) % len(b.window)
	if b.filled == len(b.window) && float64(b.faults) >= b.threshold*float64(len(b.window)) {
		b.trip()
		return true
	}
	return false
}

// trip opens the breaker (caller holds the lock).
func (b *breaker) trip() {
	b.trips.Add(1)
	b.state = breakerOpen
	b.stateG.Store(breakerOpen)
	b.coolLeft = b.cooldown
	b.clearWindow()
}

func (b *breaker) clearWindow() {
	for i := range b.window {
		b.window[i] = false
	}
	b.filled, b.idx, b.faults = 0, 0, 0
}

// BreakerState is a circuit breaker's full serializable state. The breaker
// is request-counted — no wall clocks anywhere in its state machine — so a
// restore resumes it exactly, which is what keeps resumed chaos campaigns
// byte-identical to uninterrupted ones.
type BreakerState struct {
	Window   []bool `json:"window"`
	Filled   int    `json:"filled"`
	Idx      int    `json:"idx"`
	Faults   int    `json:"faults"`
	State    int32  `json:"state"`
	CoolLeft int    `json:"cool_left"`
	Probing  bool   `json:"probing"`
	Trips    int64  `json:"trips"`
	Rejected int64  `json:"rejected"`
}

// export captures the breaker state under its lock.
func (b *breaker) export() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerState{
		Window:   append([]bool(nil), b.window...),
		Filled:   b.filled,
		Idx:      b.idx,
		Faults:   b.faults,
		State:    b.state,
		CoolLeft: b.coolLeft,
		Probing:  b.probing,
		Trips:    b.trips.Load(),
		Rejected: b.rejected.Load(),
	}
}

// restore overwrites the breaker with exported state. The window length is
// part of the state machine's identity, so a resume under a different
// -breaker-window fails instead of silently reshaping the ring.
func (b *breaker) restore(st BreakerState) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(st.Window) != len(b.window) {
		return fmt.Errorf("traffic: breaker window is %d wide, checkpoint has %d", len(b.window), len(st.Window))
	}
	copy(b.window, st.Window)
	b.filled, b.idx, b.faults = st.Filled, st.Idx, st.Faults
	b.state, b.coolLeft, b.probing = st.State, st.CoolLeft, st.Probing
	b.stateG.Store(st.State)
	b.trips.Store(st.Trips)
	b.rejected.Store(st.Rejected)
	return nil
}

// LadderState is a degradation ladder's serializable state (the rung
// engines themselves are rebuilt from the spec; only the position and
// streak counters carry over).
type LadderState struct {
	Level        int   `json:"level"`
	Trips        int   `json:"trips"`
	Clean        int   `json:"clean"`
	Degradations int64 `json:"degradations"`
	Recoveries   int64 `json:"recoveries"`
}

// export captures the ladder state under its lock.
func (l *ladder) export() LadderState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LadderState{
		Level:        l.level,
		Trips:        l.trips,
		Clean:        l.clean,
		Degradations: l.degradations.Load(),
		Recoveries:   l.recoveries.Load(),
	}
}

// restore overwrites the ladder with exported state.
func (l *ladder) restore(st LadderState) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st.Level < 0 || st.Level >= len(l.rungs) {
		return fmt.Errorf("traffic: ladder level %d out of range (ladder has %d rungs)", st.Level, len(l.rungs))
	}
	l.level, l.trips, l.clean = st.Level, st.Trips, st.Clean
	l.levelG.Store(int32(st.Level))
	l.degradations.Store(st.Degradations)
	l.recoveries.Store(st.Recoveries)
	return nil
}

// rung is one step of a class's degradation ladder: a named engine
// configuration, ordered from full hardening (rung 0) down to the cheapest
// acceptable profile.
type rung struct {
	name string
	eng  *engine.Engine
}

// ladder is one class's graceful-degradation state. Every LadderTrips
// breaker trips at the current rung step the class one rung down — shedding
// hardening cost deterministically instead of failing unpredictably — and
// every LadderRecovery consecutive clean completions step it back up, so
// degradation is reversible once pressure clears.
type ladder struct {
	mu        sync.Mutex
	rungs     []rung
	level     int
	stepTrips int
	recovery  int
	trips     int // breaker trips at the current level
	clean     int // consecutive clean completions

	levelG       atomic.Int32
	degradations atomic.Int64
	recoveries   atomic.Int64
}

// engineRung returns the current rung's engine and name (for the request
// trace's attempt annotation).
func (l *ladder) engineRung() (*engine.Engine, string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.rungs[l.level]
	return r.eng, r.name
}

// onTrip records a breaker trip, stepping down when the budget is spent.
func (l *ladder) onTrip() {
	if l.stepTrips < 0 || len(l.rungs) == 1 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.trips++
	l.clean = 0
	if l.trips >= l.stepTrips && l.level < len(l.rungs)-1 {
		l.level++
		l.trips = 0
		l.levelG.Store(int32(l.level))
		l.degradations.Add(1)
	}
}

// onFault records a non-trip fault: it only resets the recovery streak.
func (l *ladder) onFault() {
	l.mu.Lock()
	l.clean = 0
	l.mu.Unlock()
}

// onClean records a clean completion, stepping back up after a full
// recovery streak.
func (l *ladder) onClean() {
	if l.stepTrips < 0 || len(l.rungs) == 1 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.clean++
	if l.clean >= l.recovery && l.level > 0 {
		l.level--
		l.clean = 0
		l.trips = 0
		l.levelG.Store(int32(l.level))
		l.recoveries.Add(1)
	}
}

// buildLadder constructs a class's degradation rungs under mk (which wires
// engines into the campaign cache and budgets). CECSan-hardened classes get
// the full four-rung ladder of the design — drop the address quarantine,
// then delayed index reuse, then hardening itself — because those knobs are
// this repository's core runtime options. The other hardened comparators
// step straight to their default profile; unhardened tools have nothing
// cheaper to offer and stay single-rung.
func buildLadder(tool sanitizers.Name, cfg ResilienceConfig,
	mk func(tool sanitizers.Name, cecsan *core.Options) (*engine.Engine, error)) (*ladder, error) {

	l := &ladder{stepTrips: cfg.LadderTrips, recovery: cfg.LadderRecovery}
	full, err := mk(tool, nil)
	if err != nil {
		return nil, err
	}
	l.rungs = append(l.rungs, rung{name: "full", eng: full})

	addRung := func(name string, t sanitizers.Name, o *core.Options) error {
		eng, err := mk(t, o)
		if err != nil {
			return fmt.Errorf("ladder rung %q: %w", name, err)
		}
		l.rungs = append(l.rungs, rung{name: name, eng: eng})
		return nil
	}

	switch tool {
	case sanitizers.CECSanHardened:
		noQuar := core.HardenedOptions()
		noQuar.QuarantineBytes = 0
		noDelay := noQuar
		noDelay.IndexDelay = -1 // sentinel: disable delayed reuse outright
		base, _ := sanitizers.Base(tool)
		if err := addRung("no-quarantine", tool, &noQuar); err != nil {
			return nil, err
		}
		if err := addRung("no-index-delay", tool, &noDelay); err != nil {
			return nil, err
		}
		if err := addRung("default", base, nil); err != nil {
			return nil, err
		}
	case sanitizers.PACMemHardened, sanitizers.CryptSanHardened:
		base, _ := sanitizers.Base(tool)
		if err := addRung("default", base, nil); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// backoffUS computes the retry backoff for one (request, attempt) pair:
// exponential in the attempt number, capped, with seeded jitter in the upper
// half of the delay so synchronized retry storms decorrelate without
// sacrificing reproducibility — the jitter derives from (seed, request
// index, attempt), not from a shared RNG or the clock.
func backoffUS(cfg ResilienceConfig, seed, reqIndex uint64, attempt int) int64 {
	d := cfg.RetryBaseUS << (attempt - 1)
	if d > cfg.RetryCapUS || d <= 0 {
		d = cfg.RetryCapUS
	}
	if d <= 1 {
		return d
	}
	half := uint64(d / 2)
	j := splitmix.Derive(seed^reqIndex, 0xb0ff^uint64(attempt)) % half
	return int64(half) + int64(j)
}

// retryable classifies whether a failed attempt deserves another try.
// Chaos-armed machine faults are transient by construction (the retry runs
// with the plan dropped); pool-suspect panics and wall-budget exhaustion are
// the environmental faults a fresh attempt can clear. Deterministic faults
// — step/heap budget, genuine program panics — would fail identically and
// are not retried.
func retryable(armed faultinject.ChaosPlan, res *interp.Result, err error) bool {
	if !armed.Run.Zero() {
		return true
	}
	if err != nil || res == nil {
		return false
	}
	fo := engine.AsFault(res.Err)
	if fo == nil {
		return false
	}
	switch fo.Class {
	case engine.FaultPanic:
		return !fo.Deterministic
	case engine.FaultWallBudget:
		return true
	}
	return false
}

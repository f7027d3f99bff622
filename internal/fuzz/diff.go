package fuzz

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"sort"
	"sync/atomic"
	"time"

	"cecsan/csrc"
	"cecsan/internal/checkpoint"
	"cecsan/internal/engine"
	"cecsan/internal/faultinject"
	"cecsan/internal/harness"
	"cecsan/internal/interp"
	"cecsan/internal/obs"
	"cecsan/internal/rt"
	"cecsan/internal/sanitizers"
	"cecsan/internal/splitmix"
)

// Config parameterizes a differential campaign.
type Config struct {
	// Seed is the campaign base seed; per-case seeds derive from it.
	Seed uint64
	// Count is the number of generated cases.
	Count int
	// Workers bounds concurrency; <= 0 selects GOMAXPROCS.
	Workers int
	// MaxInstructions bounds each run (0 = 50M, far above any generated
	// program; the bound only catches generator bugs).
	MaxInstructions int64
	// MaxCallDepth bounds each run's simulated recursion (0 = interpreter
	// default).
	MaxCallDepth int
	// WallBudget is the per-case wall-clock watchdog (0 = 30s — a hang
	// backstop that the instruction budget fires long before in any
	// deterministic run, so campaign records stay byte-reproducible).
	WallBudget time.Duration
	// FaultSeed enables deterministic fault injection: each case's fault
	// plan derives from (FaultSeed, program fingerprint). Expected-miss
	// disagreements under injection pressure are diverted to the pressure
	// bucket; spurious detections stay findings. 0 disables injection.
	FaultSeed uint64
	// MinimizeCap bounds how many findings get the delta-debugging
	// treatment (0 = 8). Findings beyond the cap keep their full source.
	MinimizeCap int
	// Hardened swaps every CECSan-family tool for its temporally hardened
	// variant (generation-stamped metatable entries + address quarantine),
	// changing the oracle expectations with it: the Reuse/IndexReuse blind
	// spots become mandatory detections. Tools without a hardened variant
	// run unchanged.
	Hardened bool
	// Progress, when set, receives (done, total) while the campaign runs.
	Progress func(done, total int)
	// Obs, when set, attaches the observability layer to every engine in the
	// fan-out and registers campaign-level gauges (fuzz_cases_per_sec,
	// fuzz_cache_hit_rate, fuzz_faults_total, ...). Reports are byte-identical
	// with or without it.
	Obs *obs.Observer
	// CheckpointPath, when set, arms periodic durable checkpointing: the
	// campaign runs in CheckpointEvery-case chunks and snapshots its
	// accumulated state (case cursor, aggregates, findings, running case
	// digest) after each chunk. Snapshots happen between chunks, never
	// inside the worker fan-out, so checkpointing stays off the hot path.
	CheckpointPath string
	// CheckpointEvery is the chunk size in cases (default 500 when
	// CheckpointPath is set).
	CheckpointEvery int
	// Resume, when set, restores a prior campaign's snapshot and continues
	// from its case cursor. Validated against seed, fault seed, hardened
	// mode, count and the tool set — the resumed report is byte-identical
	// to an uninterrupted run's.
	Resume *CampaignCheckpoint
}

// Runner owns one engine per sanitizer and fans generated cases across all
// of them.
type Runner struct {
	cfg       Config
	faultMode bool
	tools     []sanitizers.Name
	engines   []*engine.Engine
}

// NewRunner builds a runner with one engine per registry sanitizer. All
// engines share the campaign's seeds so HWASan's tag stream is identical
// across runs of the same campaign.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.MaxInstructions == 0 {
		cfg.MaxInstructions = 50_000_000
	}
	if cfg.MinimizeCap == 0 {
		cfg.MinimizeCap = 8
	}
	if cfg.WallBudget == 0 {
		cfg.WallBudget = 30 * time.Second
	}
	r := &Runner{cfg: cfg, faultMode: cfg.FaultSeed != 0, tools: sanitizers.All()}
	if cfg.Hardened {
		for i, tool := range r.tools {
			if h, ok := sanitizers.Hardened(tool); ok {
				r.tools[i] = h
			}
		}
	}
	cache := engine.NewCache(0)
	for _, tool := range r.tools {
		// Progress is driven by Campaign's own cumulative counter (not the
		// engine scheduler) so it reports campaign-absolute case counts even
		// when the campaign runs in checkpoint chunks or resumes mid-way.
		opts := engine.Options{
			Workers:         cfg.Workers,
			MaxInstructions: cfg.MaxInstructions,
			MaxCallDepth:    cfg.MaxCallDepth,
			WallBudget:      cfg.WallBudget,
			FaultSeed:       cfg.FaultSeed,
			RuntimeSeed:     cfg.Seed,
			Obs:             cfg.Obs,
			Cache:           cache,
		}
		eng, err := engine.New(tool, opts)
		if err != nil {
			return nil, fmt.Errorf("fuzz: %w", err)
		}
		r.engines = append(r.engines, eng)
	}
	if cfg.Obs != nil {
		r.registerMetrics(cfg.Obs)
	}
	return r, nil
}

// LiveStats is a campaign-level aggregate over the runner's per-tool
// engines, cheap enough to poll from a progress line or a metrics snapshot.
type LiveStats struct {
	// Runs is total machine runs across all engines (each case fans out to
	// one run per sanitizer).
	Runs int64
	// Faults is total classified harness faults across all engines.
	Faults int64
	// CacheHitRate is the pooled instrumentation-cache hit fraction.
	CacheHitRate float64
	// CasesPerSec is total runs divided by the widest engine wall span.
	CasesPerSec float64
}

// LiveStats aggregates the engines' counters right now.
func (r *Runner) LiveStats() LiveStats {
	var ls LiveStats
	var hits, misses int64
	var wall time.Duration
	for _, e := range r.engines {
		s := e.Stats()
		ls.Runs += s.Runs
		ls.Faults += s.Faults
		hits += s.CacheHits
		misses += s.CacheMisses
		if s.Wall > wall {
			wall = s.Wall
		}
	}
	if hits+misses > 0 {
		ls.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	if wall > 0 {
		ls.CasesPerSec = float64(ls.Runs) / wall.Seconds()
	}
	return ls
}

// registerMetrics exposes the campaign-level aggregates as registry func
// gauges; the per-tool engine series are registered by the engines
// themselves.
func (r *Runner) registerMetrics(o *obs.Observer) {
	reg := o.Registry
	reg.GaugeFunc("fuzz_runs_total", func() float64 { return float64(r.LiveStats().Runs) })
	reg.GaugeFunc("fuzz_faults_total", func() float64 { return float64(r.LiveStats().Faults) })
	reg.GaugeFunc("fuzz_cache_hit_rate", func() float64 { return r.LiveStats().CacheHitRate })
	reg.GaugeFunc("fuzz_cases_per_sec", func() float64 { return r.LiveStats().CasesPerSec })
	reg.GaugeFunc("fuzz_tools", func() float64 { return float64(len(r.tools)) })
}

// Classification buckets for one (case, tool) cell. Anything not in this
// list is a finding.
const (
	bucketDetected     = "detected"      // expected detect, got a report
	bucketMissDoc      = "miss_doc"      // documented blind spot, silent
	bucketDetectedProb = "detected_prob" // probabilistic model, got a report
	bucketMissProb     = "miss_prob"     // probabilistic model, silent
	bucketClean        = "clean"         // clean case ran clean
	// bucketPressure collects fault-mode cells where injected resource
	// pressure legitimately changed the run: the program died of an injected
	// OOM or page-map failure before (or instead of) the bug, or the metadata
	// clamp degraded coverage so an expected detection went silent. Only
	// miss-direction disagreements divert here — a *detection* the oracle
	// rules out is a finding no matter what was injected.
	bucketPressure = "pressure"
)

// Finding is one oracle disagreement: an outcome the expectation models
// declare impossible. The acceptance bar for the subsystem is an empty
// findings list; anything here is either a sanitizer-model bug, an
// expectation-model bug, or a genuine discovery for the ROADMAP backlog.
type Finding struct {
	Tool   string `json:"tool"`
	Seed   uint64 `json:"seed"`
	Shape  string `json:"shape"`
	Reason string `json:"reason"`
	Detail string `json:"detail,omitempty"`
	// Expect / Outcome / Kind record the disagreement: what the model
	// predicted, what the run did, and the violation kind if any.
	Expect   string `json:"expect,omitempty"`
	Outcome  string `json:"outcome"`
	Kind     string `json:"kind,omitempty"`
	WantKind string `json:"want_kind,omitempty"`
	// Source is the reproducer — minimized when the finding was within
	// the minimization cap, the full generated program otherwise.
	Source    string `json:"source"`
	Minimized bool   `json:"minimized"`

	caseIdx int
	toolIdx int
}

// ToolReport aggregates one sanitizer's column of the campaign.
type ToolReport struct {
	Tool string `json:"tool"`
	// Bucket counts over the tool's cells (injected + clean cases).
	Detected     int `json:"detected"`
	MissDoc      int `json:"miss_doc"`
	DetectedProb int `json:"detected_prob,omitempty"`
	MissProb     int `json:"miss_prob,omitempty"`
	Clean        int `json:"clean"`
	// Pressure counts cells where injected faults legitimately changed the
	// outcome (fault mode only).
	Pressure int `json:"pressure,omitempty"`
	// Faults counts harness-level faults (recovered panics, budget
	// exhaustions) — cases with no sanitizer verdict at all.
	Faults   int `json:"faults,omitempty"`
	Findings int `json:"findings,omitempty"`
}

// FaultCase records one harness-level fault deterministically: class only —
// panic values and stacks carry addresses, so they stay out of the record.
type FaultCase struct {
	Tool  string `json:"tool"`
	Seed  uint64 `json:"seed"`
	Shape string `json:"shape"`
	Class string `json:"class"`
}

// Report is the deterministic campaign record: same seed, count and fault
// seed produce a byte-identical report regardless of worker count (it
// deliberately carries no timing — throughput lives in the separate bench
// record).
type Report struct {
	Seed      uint64         `json:"seed"`
	FaultSeed uint64         `json:"fault_seed,omitempty"`
	Hardened  bool           `json:"hardened,omitempty"`
	Count     int            `json:"count"`
	Injected  int            `json:"injected"`
	CleanN    int            `json:"clean_cases"`
	Shapes    map[string]int `json:"shapes"`
	// CaseDigest is the hex SHA-256 over every case's canonical outcome
	// record in case order — the campaign's byte-determinism witness (the
	// analogue of the traffic stream digest), checkpointed mid-stream so a
	// resumed campaign provably covers the identical cases.
	CaseDigest string       `json:"case_digest"`
	Tools      []ToolReport `json:"tools"`
	// HarnessFaults totals FaultCases; any non-zero value makes cmd/fuzz
	// exit 2 (harness fault), distinct from exit 1 (findings).
	HarnessFaults int         `json:"harness_faults,omitempty"`
	FaultCases    []FaultCase `json:"fault_cases,omitempty"`
	Findings      []Finding   `json:"findings"`
}

// outcomeName renders a harness outcome for JSON records.
func outcomeName(o harness.Outcome) string {
	switch o {
	case harness.OutcomeClean:
		return "clean"
	case harness.OutcomeDetected:
		return "detected"
	case harness.OutcomeCrash:
		return "crash"
	case harness.OutcomeError:
		return "error"
	}
	return "?"
}

// cell is the classification of one (case, tool) run.
type cell struct {
	bucket     string // one of the bucket* constants, or "" for a finding
	reason     string // finding reason when bucket == ""
	detail     string
	expect     Expect
	outcome    harness.Outcome
	kind       rt.Kind // observed violation kind, if any
	hasKind    bool
	faultClass string // harness-fault class when the machine itself stopped
}

// classify compares one run result against the oracle's expectation for
// the tool. The rules mirror the subsystem contract in the package doc;
// faultMode additionally enables the pressure diversions documented on
// bucketPressure.
func classify(tool sanitizers.Name, o *Oracle, res *interp.Result, faultMode bool) cell {
	outcome := harness.Classify(res)
	c := cell{outcome: outcome, expect: ExpectFor(tool, o)}
	if v := res.Violation; v != nil {
		c.kind, c.hasKind = v.Kind, true
	}
	if fo := engine.AsFault(res.Err); fo != nil {
		// The machine itself was stopped: there is no sanitizer verdict to
		// compare. Recorded by class alone (stacks and panic payloads carry
		// addresses) and surfaced as a harness fault, not a finding.
		c.faultClass = fo.Class.String()
		return c
	}
	// Injection pressure that legitimately pre-empts or masks the verdict:
	// the program died of an injected OOM or page-map SIGBUS, or the clamped
	// metadata table degraded coverage. Detections the oracle rules out are
	// never excused this way.
	pressured := faultMode && (res.Stats.InjectedFaults > 0 ||
		res.Stats.DegradedAllocs > 0 ||
		(res.Fault != nil && res.Fault.Injected) ||
		errors.Is(res.Err, faultinject.ErrInjectedOOM))
	switch outcome {
	case harness.OutcomeError:
		if pressured && errors.Is(res.Err, faultinject.ErrInjectedOOM) {
			c.bucket = bucketPressure
			return c
		}
		c.reason = "error"
		if res.Err != nil {
			c.detail = res.Err.Error()
		}
		return c
	case harness.OutcomeCrash:
		if pressured && res.Fault != nil && res.Fault.Injected {
			c.bucket = bucketPressure
			return c
		}
		// No shape is allowed to escalate to a machine-level fault under
		// any tool — least of all native, whose contract is "never aborts".
		c.reason = "fault"
		return c
	}
	detected := outcome == harness.OutcomeDetected

	if !o.Injected {
		if detected {
			c.reason = "false-positive"
			return c
		}
		c.bucket = bucketClean
		return c
	}

	if tool == sanitizers.Native && detected {
		c.reason = "native-report"
		return c
	}
	if tool == sanitizers.CECSan && c.expect == ExpectDetect {
		// Stricter than the generic ExpectDetect arm: CECSan must also
		// report the exact violation kind the oracle recorded. (The one
		// ExpectMiss carve-out — the staged tag-reuse UAF — falls through
		// to the generic classification below.)
		if !detected {
			if pressured {
				c.bucket = bucketPressure
				return c
			}
			c.reason = "cecsan-false-negative"
			return c
		}
		if c.kind != o.Kind {
			if pressured {
				c.bucket = bucketPressure
				return c
			}
			c.reason = "wrong-kind"
			c.detail = fmt.Sprintf("reported %v", c.kind)
			return c
		}
		c.bucket = bucketDetected
		return c
	}

	switch c.expect {
	case ExpectDetect:
		if detected {
			c.bucket = bucketDetected
		} else if pressured {
			c.bucket = bucketPressure
		} else {
			c.reason = "unexpected-miss"
		}
	case ExpectMiss:
		if detected {
			c.reason = "unexpected-detect"
			if c.hasKind {
				c.detail = fmt.Sprintf("reported %v", c.kind)
			}
		} else {
			c.bucket = bucketMissDoc
		}
	default: // ExpectMaybe
		if detected {
			c.bucket = bucketDetectedProb
		} else if pressured {
			c.bucket = bucketPressure
		} else {
			c.bucket = bucketMissProb
		}
	}
	return c
}

// caseOut is one case's raw fan-out result, produced by workers and
// absorbed into the report in case order.
type caseOut struct {
	oracle  Oracle
	cells   []cell
	genErr  string
	theCase *Case
}

// progressEvery is the Progress callback stride in cases.
const progressEvery = 100

// defaultFuzzCheckpointEvery is the snapshot chunk size in cases.
const defaultFuzzCheckpointEvery = 500

// Campaign generates cfg.Count cases, fans each across every sanitizer,
// classifies every cell against the oracle and returns the deterministic
// report. Findings within the minimization cap are shrunk to minimal
// reproducers.
//
// With CheckpointPath set the campaign runs in chunks, absorbing each
// chunk into the running report (and the case-digest chain) and writing a
// durable snapshot between chunks; with Resume set it restores a snapshot
// first and continues from its cursor. Chunking, checkpointing and
// resuming never change the report: aggregation happens in case order
// either way, and the final minimization pass regenerates cases from
// their seeds, which is exactly how they were produced.
func (r *Runner) Campaign() (*Report, error) {
	n := r.cfg.Count
	rep := &Report{Seed: r.cfg.Seed, FaultSeed: r.cfg.FaultSeed, Hardened: r.cfg.Hardened, Count: n, Shapes: map[string]int{}}
	for _, tool := range r.tools {
		rep.Tools = append(rep.Tools, ToolReport{Tool: string(tool)})
	}
	chain := sha256.New()
	start := 0
	if ck := r.cfg.Resume; ck != nil {
		if err := r.restoreCampaign(rep, chain, ck); err != nil {
			return nil, err
		}
		start = ck.NextCase
	}

	every := r.cfg.CheckpointEvery
	if every <= 0 {
		every = defaultFuzzCheckpointEvery
	}
	if r.cfg.CheckpointPath == "" {
		// No checkpointing: one chunk, the pre-checkpoint behaviour.
		every = n - start
		if every < 1 {
			every = 1
		}
	}

	var done atomic.Int64
	done.Store(int64(start))
	for lo := start; lo < n; lo += every {
		hi := lo + every
		if hi > n {
			hi = n
		}
		outs := make([]caseOut, hi-lo)
		err := r.engines[0].ForEach(hi-lo, func(j int) error {
			i := lo + j
			c := Generate(splitmix.Derive(r.cfg.Seed, uint64(i)))
			outs[j].oracle = c.Oracle
			outs[j].theCase = c
			p, err := csrc.Compile(c.Source)
			if err != nil {
				outs[j].genErr = err.Error()
			} else {
				outs[j].cells = make([]cell, len(r.tools))
				for ti, tool := range r.tools {
					res, rerr := r.engines[ti].Run(p, c.Inputs...)
					if rerr != nil {
						outs[j].cells[ti] = cell{reason: "error", detail: rerr.Error(), outcome: harness.OutcomeError}
						continue
					}
					outs[j].cells[ti] = classify(tool, &c.Oracle, res, r.faultMode)
				}
			}
			if d := int(done.Add(1)); r.cfg.Progress != nil && (d%progressEvery == 0 || d == n) {
				r.cfg.Progress(d, n)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Deterministic aggregation in case order, then tool order.
		for j := range outs {
			r.absorb(rep, chain, lo+j, &outs[j])
		}
		if r.cfg.CheckpointPath != "" && hi < n {
			ck, err := r.captureCampaign(rep, chain, hi)
			if err == nil {
				err = checkpoint.Save(r.cfg.CheckpointPath, checkpoint.KindFuzz, ck)
			}
			if err != nil {
				return nil, fmt.Errorf("fuzz: checkpoint: %w", err)
			}
		}
	}
	rep.CaseDigest = hex.EncodeToString(chain.Sum(nil))

	// Minimization regenerates each finding's case from its seed — pure in
	// (campaign seed, case index), so it works identically for findings
	// carried over from a snapshot.
	r.minimizeFindings(rep, func(i int) *Case { return Generate(splitmix.Derive(r.cfg.Seed, uint64(i))) })
	return rep, nil
}

// absorb folds one completed case into the running report and the case
// digest chain. Must be called in case order.
func (r *Runner) absorb(rep *Report, chain hash.Hash, i int, o *caseOut) {
	fmt.Fprintf(chain, "%d|%d|%s|%s\n", i, o.theCase.Seed, shapeLabel(&o.oracle), o.genErr)
	if o.oracle.Injected {
		rep.Injected++
		rep.Shapes[o.oracle.Shape]++
	} else {
		rep.CleanN++
	}
	if o.genErr != "" {
		rep.Findings = append(rep.Findings, Finding{
			Tool: "-", Seed: o.theCase.Seed, Shape: shapeLabel(&o.oracle),
			Reason: "compile-error", Detail: o.genErr,
			Outcome: "error", Source: o.theCase.Source, caseIdx: i,
		})
		return
	}
	for ti := range r.tools {
		cl := &o.cells[ti]
		tr := &rep.Tools[ti]
		fmt.Fprintf(chain, "%s|%s|%s|%s\n", r.tools[ti], cl.bucket, cl.reason, cl.faultClass)
		if cl.faultClass != "" {
			tr.Faults++
			rep.HarnessFaults++
			rep.FaultCases = append(rep.FaultCases, FaultCase{
				Tool: string(r.tools[ti]), Seed: o.theCase.Seed,
				Shape: shapeLabel(&o.oracle), Class: cl.faultClass,
			})
			continue
		}
		switch cl.bucket {
		case bucketDetected:
			tr.Detected++
		case bucketMissDoc:
			tr.MissDoc++
		case bucketDetectedProb:
			tr.DetectedProb++
		case bucketMissProb:
			tr.MissProb++
		case bucketClean:
			tr.Clean++
		case bucketPressure:
			tr.Pressure++
		default:
			tr.Findings++
			f := Finding{
				Tool: string(r.tools[ti]), Seed: o.theCase.Seed,
				Shape: shapeLabel(&o.oracle), Reason: cl.reason,
				Detail: cl.detail, Expect: cl.expect.String(),
				Outcome: outcomeName(cl.outcome),
				Source:  o.theCase.Source,
				caseIdx: i, toolIdx: ti,
			}
			if cl.hasKind {
				f.Kind = cl.kind.String()
			}
			if r.tools[ti] == sanitizers.CECSan && o.oracle.Injected {
				f.WantKind = o.oracle.KindName()
			}
			rep.Findings = append(rep.Findings, f)
		}
	}
}

func shapeLabel(o *Oracle) string {
	if !o.Injected {
		return "clean"
	}
	return o.Shape
}

// minimizeFindings shrinks up to MinimizeCap findings (in deterministic
// report order) to minimal reproducers. The keep-predicate re-runs the
// shrunk candidate on the finding's own engine and demands the same
// (reason, tool) disagreement.
func (r *Runner) minimizeFindings(rep *Report, caseAt func(i int) *Case) {
	sort.SliceStable(rep.Findings, func(a, b int) bool {
		fa, fb := &rep.Findings[a], &rep.Findings[b]
		if fa.caseIdx != fb.caseIdx {
			return fa.caseIdx < fb.caseIdx
		}
		return fa.toolIdx < fb.toolIdx
	})
	budget := r.cfg.MinimizeCap
	for fi := range rep.Findings {
		if budget == 0 {
			break
		}
		f := &rep.Findings[fi]
		if f.Reason == "compile-error" || f.Reason == "error" {
			continue // already minimal / not execution-reproducible
		}
		budget--
		c := caseAt(f.caseIdx)
		min := Minimize(c, func(cand *Case) bool {
			return r.reproduces(cand, f)
		})
		if min != nil {
			f.Source = min.Source
			f.Minimized = true
		}
	}
}

// reproduces reruns a candidate on the finding's tool and reports whether
// the same disagreement reason shows up.
func (r *Runner) reproduces(cand *Case, f *Finding) bool {
	p, err := csrc.Compile(cand.Source)
	if err != nil {
		return false
	}
	res, rerr := r.engines[f.toolIdx].Run(p, cand.Inputs...)
	if rerr != nil {
		return false
	}
	cl := classify(r.tools[f.toolIdx], &cand.Oracle, res, r.faultMode)
	return cl.bucket == "" && cl.faultClass == "" && cl.reason == f.Reason
}

// RunOne generates the case for one seed, fans it across every sanitizer
// and returns any findings (unminimized). This is the Go-native fuzz
// target's entry point; Campaign is the batch equivalent.
func (r *Runner) RunOne(seed uint64) []Finding {
	c := Generate(seed)
	p, err := csrc.Compile(c.Source)
	if err != nil {
		return []Finding{{Tool: "-", Seed: seed, Shape: shapeLabel(&c.Oracle),
			Reason: "compile-error", Detail: err.Error(), Outcome: "error", Source: c.Source}}
	}
	var findings []Finding
	for ti, tool := range r.tools {
		res, rerr := r.engines[ti].Run(p, c.Inputs...)
		var cl cell
		if rerr != nil {
			cl = cell{reason: "error", detail: rerr.Error(), outcome: harness.OutcomeError}
		} else {
			cl = classify(tool, &c.Oracle, res, r.faultMode)
		}
		if cl.faultClass != "" {
			// The batch path reports these separately as harness faults; the
			// Go-native fuzz target has only findings to surface them with.
			findings = append(findings, Finding{
				Tool: string(tool), Seed: seed, Shape: shapeLabel(&c.Oracle),
				Reason: "harness-fault", Detail: cl.faultClass,
				Outcome: outcomeName(cl.outcome), Source: c.Source, toolIdx: ti,
			})
			continue
		}
		if cl.bucket != "" {
			continue
		}
		f := Finding{
			Tool: string(tool), Seed: seed, Shape: shapeLabel(&c.Oracle),
			Reason: cl.reason, Detail: cl.detail, Expect: cl.expect.String(),
			Outcome: outcomeName(cl.outcome), Source: c.Source, toolIdx: ti,
		}
		if cl.hasKind {
			f.Kind = cl.kind.String()
		}
		findings = append(findings, f)
	}
	return findings
}

// Tools returns the registry order the runner fans across.
func (r *Runner) Tools() []sanitizers.Name { return r.tools }

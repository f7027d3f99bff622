package traffic

import (
	"fmt"
	"time"

	"cecsan/internal/obs"
)

// OverloadConfig configures an overload sweep: a closed-loop calibration
// run that measures the deployment's saturation throughput, then one
// open-loop point per multiple of that capacity, each served with the
// resilience layer armed.
type OverloadConfig struct {
	// Spec is the validated workload spec.
	Spec *Spec
	// Seed, when nonzero, overrides the spec's seed.
	Seed uint64
	// Workers sizes the execution pool (<= 0 selects GOMAXPROCS).
	Workers int
	// Requests bounds each point's request stream (<= 0 = 5000). The
	// sweep is self-calibrating: a point lasts Requests/capacity seconds
	// of wall time on whatever machine runs it, so the default gives each
	// point several CoDel control intervals of sustained pressure.
	Requests int
	// Multiples are the offered-load multiples of calibrated capacity to
	// sweep (empty = 1, 2, 4). Multiples past 1.0 drive the deployment
	// past saturation, which is where shedding, breakers and the
	// degradation ladder earn their keep.
	Multiples []float64
	// Resilience tunes the swept points (nil = defaults).
	Resilience *ResilienceConfig
	// ChaosSeed, when nonzero, additionally arms the chaos campaign on
	// every swept point (not the calibration run).
	ChaosSeed uint64
	// QueueDepth sizes each point's admission queue (<= 0 = 256). Overload
	// points default deeper than Serve's 4x workers: open-loop pacing at
	// high speedups arrives in timer-granularity bursts, and with the
	// CoDel controller shedding on sustained *delay*, a deep queue absorbs
	// jitter without surrendering latency control.
	QueueDepth int
	// Obs, when set, is passed to every run (gauges reflect the most
	// recent point).
	Obs *obs.Observer
	// Progress, when set, is called as each stage starts.
	Progress func(stage string)
}

// OverloadPoint is one swept offered-load point.
type OverloadPoint struct {
	// Multiple is the offered load as a multiple of calibrated capacity.
	Multiple float64 `json:"multiple"`
	// Speedup is the stream compression factor that realizes it.
	Speedup float64 `json:"speedup"`
	// OfferedPerSec is the offered request rate.
	OfferedPerSec float64 `json:"offered_per_sec"`
	// Result is the point's full campaign summary.
	Result *ServeResult `json:"result"`
}

// OverloadResult is the sweep summary (the cmd/serve -overload -json
// payload, minus the run metadata cmd/serve adds).
type OverloadResult struct {
	Seed           uint64          `json:"seed"`
	Workers        int             `json:"workers"`
	Requests       int             `json:"requests"`
	CapacityPerSec float64         `json:"capacity_per_sec"`
	ChaosSeed      uint64          `json:"chaos_seed,omitempty"`
	Points         []OverloadPoint `json:"points"`
}

// RunOverload calibrates, then sweeps. Calibration runs closed-loop with
// the resilience layer off: workers drain as fast as they can, and the
// achieved request rate is the deployment's capacity. Each sweep point then
// replays the same deterministic stream open-loop at Multiple x capacity
// with resilience armed, so the BENCH payload shows goodput, sheds, retries,
// breaker trips and ladder moves as offered load climbs past saturation.
func RunOverload(cfg OverloadConfig) (*OverloadResult, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("traffic: overload: nil spec")
	}
	requests := cfg.Requests
	if requests <= 0 {
		requests = 5000
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 256
	}
	multiples := cfg.Multiples
	if len(multiples) == 0 {
		multiples = []float64{1, 2, 4}
	}
	for _, m := range multiples {
		if m <= 0 {
			return nil, fmt.Errorf("traffic: overload: multiple %v must be positive", m)
		}
	}
	res := cfg.Resilience
	if res == nil {
		res = &ResilienceConfig{}
	}
	progress := func(stage string) {
		if cfg.Progress != nil {
			cfg.Progress(stage)
		}
	}

	progress("calibrate")
	cal, err := Serve(ServeConfig{
		Spec:        cfg.Spec,
		Seed:        cfg.Seed,
		Workers:     cfg.Workers,
		MaxRequests: requests,
		QueueDepth:  depth,
		Obs:         cfg.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("traffic: overload calibration: %w", err)
	}
	capacity := cal.RequestsPerSec
	if capacity <= 0 {
		return nil, fmt.Errorf("traffic: overload calibration measured no throughput (elapsed %v)", cal.Elapsed)
	}

	out := &OverloadResult{
		Seed:           cal.Seed,
		Workers:        cal.Workers,
		Requests:       requests,
		CapacityPerSec: capacity,
		ChaosSeed:      cfg.ChaosSeed,
	}
	for _, m := range multiples {
		offered := m * capacity
		speedup := offered / cfg.Spec.AggregateRate
		progress(fmt.Sprintf("sweep %gx (%.0f req/s)", m, offered))
		r, err := Serve(ServeConfig{
			Spec:        cfg.Spec,
			Seed:        cfg.Seed,
			Workers:     cfg.Workers,
			MaxRequests: requests,
			QueueDepth:  depth,
			Speedup:     speedup,
			Resilience:  res,
			ChaosSeed:   cfg.ChaosSeed,
			Obs:         cfg.Obs,
			// Safety net: an open-loop point cannot take longer than the
			// offered schedule plus drain time; 2 minutes bounds a wedged
			// point without touching healthy ones.
			Duration: 2 * time.Minute,
		})
		if err != nil {
			return nil, fmt.Errorf("traffic: overload point %gx: %w", m, err)
		}
		out.Points = append(out.Points, OverloadPoint{
			Multiple:      m,
			Speedup:       speedup,
			OfferedPerSec: offered,
			Result:        r,
		})
	}
	return out, nil
}

// Command temporalbench quantifies the cost of the temporal-hardening modes:
// it runs a fixed workload set under CECSan four times — baseline, generation
// stamping only, address quarantine only, and both — and records the
// RSS-model deltas against the baseline, plus the degradation counters
// (generation wraps, index spills, quarantine evictions/flushes). Every
// field is exact: a pure function of the workloads and the mode, so the
// record gates by equality (cmd/benchgate against BENCH_temporal.json).
// The record is the quantified trade-off behind the hardened profiles'
// defaults.
//
// Usage:
//
//	temporalbench [-churn 1500] [-json temporal.json]
//
// The set is the specsim smoke workloads (a realistic operation mix) plus two
// synthetic allocation-churn programs that maximize free-structure and
// quarantine traffic — the worst case for both mitigations.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cecsan/csrc"
	"cecsan/internal/cliutil"
	"cecsan/internal/core"
	"cecsan/internal/engine"
	"cecsan/internal/sanitizers"
	"cecsan/internal/specsim"
	"cecsan/prog"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "temporalbench:", err)
		os.Exit(1)
	}
}

// workloadJSON is one (mode, workload) measurement.
type workloadJSON struct {
	Name         string  `json:"name"`
	PeakRSS      int64   `json:"peak_rss"`
	PeakOverhead int64   `json:"peak_overhead"`
	RSSPct       float64 `json:"rss_pct"` // overhead vs baseline, percent

	GenWraps    int64 `json:"gen_wraps,omitempty"`
	IndexSpills int64 `json:"index_spills,omitempty"`
	QuarEvicts  int64 `json:"quarantine_evictions,omitempty"`
	QuarFlushes int64 `json:"quarantine_flushes,omitempty"`
}

// modeJSON is one hardening configuration's column.
type modeJSON struct {
	Name            string         `json:"name"`
	GenerationBits  uint           `json:"generation_bits"`
	IndexDelay      int            `json:"index_delay"`
	QuarantineBytes int64          `json:"quarantine_bytes"`
	AvgRSSPct       float64        `json:"avg_rss_pct"`
	Workloads       []workloadJSON `json:"workloads"`
}

type benchJSON struct {
	Bench string     `json:"bench"`
	Churn int        `json:"churn"`
	Modes []modeJSON `json:"modes"`
}

// churnSource renders an unrolled allocation-churn program: a sliding window
// of `window` live chunks of `size` bytes over `n` allocations, every store
// checked. This is the free-structure's worst case — each free enters the
// delayed-reuse FIFO and the quarantine, and each allocation pops them.
func churnSource(n, window, size int) string {
	var b strings.Builder
	b.WriteString("func main() {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "    var p%d = malloc(%d);\n    p%d[0] = %d;\n", i, size, i, i%100)
		if i >= window {
			fmt.Fprintf(&b, "    free(p%d);\n", i-window)
		}
	}
	for i := n - window; i < n; i++ {
		fmt.Fprintf(&b, "    free(p%d);\n", i)
	}
	b.WriteString("    return 0;\n}\n")
	return b.String()
}

func run() error {
	churn := flag.Int("churn", 1500, "allocations in each synthetic churn workload")
	jsonPath := flag.String("json", "", "write the machine-readable record to this path")
	obsFlags := cliutil.ObsFlagsCmd()
	flag.Parse()

	o, srv, err := obsFlags.Build()
	if err != nil {
		return err
	}

	type workload struct {
		name  string
		build func() (*prog.Program, error)
	}
	var workloads []workload
	small, err := csrc.Compile(churnSource(*churn, 32, 64))
	if err != nil {
		return fmt.Errorf("churn-small: %w", err)
	}
	large, err := csrc.Compile(churnSource(*churn/4, 16, 4096))
	if err != nil {
		return fmt.Errorf("churn-large: %w", err)
	}
	workloads = append(workloads,
		workload{"churn-small", func() (*prog.Program, error) { return small, nil }},
		workload{"churn-large", func() (*prog.Program, error) { return large, nil }},
	)
	for _, w := range specsim.Smoke() {
		build := w.Build
		workloads = append(workloads, workload{w.Name, func() (*prog.Program, error) { return build(), nil }})
	}

	genOnly := core.DefaultOptions()
	genOnly.TemporalGenerations = true
	quarOnly := core.DefaultOptions()
	quarOnly.QuarantineBytes = core.DefaultQuarantineBytes
	modes := []struct {
		name string
		opts core.Options
	}{
		{"baseline", core.DefaultOptions()},
		{"generations", genOnly},
		{"quarantine", quarOnly},
		{"hardened", core.HardenedOptions()},
	}

	rec := benchJSON{Bench: "temporal", Churn: *churn}
	baseline := map[string]int64{}
	for _, mode := range modes {
		opts := mode.opts
		eng, err := engine.New(sanitizers.CECSan, engine.Options{RuntimeSeed: 1, CECSan: &opts, Obs: o})
		if err != nil {
			return err
		}
		mj := modeJSON{
			Name:            mode.name,
			QuarantineBytes: opts.QuarantineBytes,
		}
		if opts.TemporalGenerations {
			mj.GenerationBits = core.DefaultGenerationBits
			mj.IndexDelay = core.DefaultIndexDelay
		}
		var sumRSS float64
		for _, w := range workloads {
			p, err := w.build()
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			res, err := eng.Run(p)
			if err != nil {
				return fmt.Errorf("%s under %s: %w", w.name, mode.name, err)
			}
			if res.Violation != nil || res.Err != nil {
				return fmt.Errorf("%s under %s: unexpected outcome (violation=%v err=%v)",
					w.name, mode.name, res.Violation, res.Err)
			}
			wj := workloadJSON{
				Name:         w.name,
				PeakRSS:      res.Stats.PeakRSS,
				PeakOverhead: res.Stats.PeakOverheadBytes,
				GenWraps:     res.Stats.GenerationWraps,
				IndexSpills:  res.Stats.IndexSpills,
				QuarEvicts:   res.Stats.QuarantineEvictions,
				QuarFlushes:  res.Stats.QuarantineFlushes,
			}
			if mode.name == "baseline" {
				baseline[w.name] = wj.PeakRSS
			} else {
				wj.RSSPct = pct(float64(wj.PeakRSS), float64(baseline[w.name]))
			}
			sumRSS += wj.RSSPct
			mj.Workloads = append(mj.Workloads, wj)
		}
		mj.AvgRSSPct = sumRSS / float64(len(workloads))
		rec.Modes = append(rec.Modes, mj)
		fmt.Printf("%-12s avg rss %+6.1f%%\n", mode.name, mj.AvgRSSPct)
	}

	if *jsonPath != "" {
		if err := cliutil.WriteJSON(*jsonPath, rec); err != nil {
			return err
		}
	}
	return obsFlags.Finish(o, srv, 0)
}

// pct is the percent overhead of v over base (0 when base is 0).
func pct(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (v/base - 1) * 100
}

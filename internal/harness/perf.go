package harness

import (
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"cecsan/internal/engine"
	"cecsan/internal/sanitizers"
	"cecsan/internal/specsim"
)

// PerfRow is one benchmark row of Table IV: runtime and memory overhead of
// each tool relative to the native baseline.
type PerfRow struct {
	Benchmark string
	// NativeSeconds is the baseline wall time (best of reps).
	NativeSeconds float64
	// NativeRSS is the baseline peak footprint in bytes.
	NativeRSS int64
	// RuntimePct and MemoryPct are overhead percentages per tool.
	RuntimePct map[sanitizers.Name]float64
	MemoryPct  map[sanitizers.Name]float64
}

// PerfTable aggregates the rows of one suite.
type PerfTable struct {
	Suite string
	Tools []sanitizers.Name
	Rows  []PerfRow
	// Engines holds each tool's pipeline counters across the whole suite
	// (native included).
	Engines map[sanitizers.Name]engine.Stats
}

// measurement is one tool's best-of-reps result on one workload.
type measurement struct {
	seconds float64
	rss     int64
	ret     uint64
}

// measure runs one workload through one tool's engine, returning the best
// wall time across reps and the peak footprint. The engine's cache means the
// program instruments once (compile time excluded); the engine runs in
// FreshRuntime mode so each rep gets a fresh sanitizer runtime AND a fresh
// address space, preserving the paper's fresh-process-per-rep measurement
// semantics (sanitizer state is per-process, and so is the page-fault
// profile the RSS model charges).
func measure(eng *engine.Engine, w specsim.Workload, reps int) (measurement, error) {
	p := w.Build()
	best := measurement{seconds: math.Inf(1)}
	for r := 0; r < reps; r++ {
		m, err := eng.NewMachine(p)
		if err != nil {
			return measurement{}, err
		}
		start := time.Now()
		res := m.Run()
		dur := time.Since(start).Seconds()
		m.Release()
		if res.Violation != nil {
			return measurement{}, fmt.Errorf("harness: %s under %s reported: %v", w.Name, eng.Tool(), res.Violation)
		}
		if res.Fault != nil || res.Err != nil {
			return measurement{}, fmt.Errorf("harness: %s under %s failed: %v%v", w.Name, eng.Tool(), res.Fault, res.Err)
		}
		if dur < best.seconds {
			best.seconds = dur
			best.rss = res.Stats.PeakRSS
			best.ret = res.Ret
		}
	}
	return best, nil
}

// EvaluatePerf measures every workload under native plus the listed tools
// and returns the overhead table. reps <= 0 defaults to 3.
func EvaluatePerf(ws []specsim.Workload, tools []sanitizers.Name, reps int) (*PerfTable, error) {
	if reps <= 0 {
		reps = 3
	}
	table := &PerfTable{Tools: tools, Engines: make(map[sanitizers.Name]engine.Stats)}
	if len(ws) > 0 {
		table.Suite = ws[0].Suite
	}
	// One engine per tool for the whole suite: instrumentation is cached
	// across reps, execution stays fresh-per-rep.
	engines := make(map[sanitizers.Name]*engine.Engine, len(tools)+1)
	for _, tool := range append([]sanitizers.Name{sanitizers.Native}, tools...) {
		if _, ok := engines[tool]; ok {
			continue
		}
		eng, err := engine.New(tool, engine.Options{FreshRuntime: true, Obs: Obs})
		if err != nil {
			return nil, err
		}
		engines[tool] = eng
	}
	for _, w := range ws {
		if Verbose {
			fmt.Fprintf(os.Stderr, "  %-18s native...", w.Name)
		}
		base, err := measure(engines[sanitizers.Native], w, reps)
		if err != nil {
			return nil, err
		}
		if Verbose {
			fmt.Fprintf(os.Stderr, " %.0fms", base.seconds*1000)
		}
		row := PerfRow{
			Benchmark:     w.Name,
			NativeSeconds: base.seconds,
			NativeRSS:     base.rss,
			RuntimePct:    make(map[sanitizers.Name]float64, len(tools)),
			MemoryPct:     make(map[sanitizers.Name]float64, len(tools)),
		}
		for _, tool := range tools {
			if Verbose {
				fmt.Fprintf(os.Stderr, " %s...", tool)
			}
			m, err := measure(engines[tool], w, reps)
			if err != nil {
				return nil, err
			}
			if Verbose {
				fmt.Fprintf(os.Stderr, " %.0fms", m.seconds*1000)
			}
			if m.ret != base.ret {
				return nil, fmt.Errorf("harness: %s under %s computed %d, native computed %d (instrumentation changed semantics)",
					w.Name, tool, m.ret, base.ret)
			}
			row.RuntimePct[tool] = 100 * (m.seconds/base.seconds - 1)
			row.MemoryPct[tool] = 100 * (float64(m.rss)/float64(base.rss) - 1)
		}
		table.Rows = append(table.Rows, row)
		if Verbose {
			fmt.Fprintln(os.Stderr)
		}
	}
	for tool, eng := range engines {
		table.Engines[tool] = eng.Stats()
	}
	return table, nil
}

// Verbose enables per-cell progress logging on stderr during EvaluatePerf.
var Verbose bool

// Average returns the arithmetic-mean overhead of one tool.
func (t *PerfTable) Average(tool sanitizers.Name, memory bool) float64 {
	var sum float64
	for _, r := range t.Rows {
		if memory {
			sum += r.MemoryPct[tool]
		} else {
			sum += r.RuntimePct[tool]
		}
	}
	return sum / float64(len(t.Rows))
}

// Geomean returns the geometric mean of one tool's overhead percentages
// (the paper's second aggregate row). Values below 0.1% clamp to 0.1% so a
// near-zero row cannot zero the product.
func (t *PerfTable) Geomean(tool sanitizers.Name, memory bool) float64 {
	var logSum float64
	for _, r := range t.Rows {
		v := r.RuntimePct[tool]
		if memory {
			v = r.MemoryPct[tool]
		}
		if v < 0.1 {
			v = 0.1
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(t.Rows)))
}

// FormatTable4 renders the full per-benchmark overhead table (Table IV).
func FormatTable4(t *PerfTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV: Performance Overhead Comparison on SPEC%s-like workloads\n", t.Suite)
	fmt.Fprintf(&b, "%-18s", "Benchmark")
	for _, tool := range t.Tools {
		fmt.Fprintf(&b, " rt:%-10s", tool)
	}
	for _, tool := range t.Tools {
		fmt.Fprintf(&b, " mem:%-9s", tool)
	}
	b.WriteString("  native\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-18s", r.Benchmark)
		for _, tool := range t.Tools {
			fmt.Fprintf(&b, " %12.1f%%", r.RuntimePct[tool])
		}
		for _, tool := range t.Tools {
			fmt.Fprintf(&b, " %12.1f%%", r.MemoryPct[tool])
		}
		fmt.Fprintf(&b, "  %6.0fms\n", r.NativeSeconds*1000)
	}
	writeAgg := func(label string, f func(sanitizers.Name, bool) float64) {
		fmt.Fprintf(&b, "%-18s", label)
		for _, tool := range t.Tools {
			fmt.Fprintf(&b, " %12.1f%%", f(tool, false))
		}
		for _, tool := range t.Tools {
			fmt.Fprintf(&b, " %12.1f%%", f(tool, true))
		}
		b.WriteString("\n")
	}
	writeAgg("Average", t.Average)
	writeAgg("Geometric Mean", t.Geomean)
	return b.String()
}

// FormatTable5 renders the aggregate-only view the paper uses for SPEC2017
// (Table V).
func FormatTable5(t *PerfTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table V: Performance Overhead Comparison on SPEC%s-like workloads\n", t.Suite)
	fmt.Fprintf(&b, "%-28s %-12s %s\n", "Performance", "Average", "Geometric Mean")
	for _, tool := range t.Tools {
		fmt.Fprintf(&b, "Runtime Overhead  %-10s %10.1f%% %10.1f%%\n", tool, t.Average(tool, false), t.Geomean(tool, false))
	}
	for _, tool := range t.Tools {
		fmt.Fprintf(&b, "Memory Overhead   %-10s %10.1f%% %10.1f%%\n", tool, t.Average(tool, true), t.Geomean(tool, true))
	}
	return b.String()
}

// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload with a single engine worker and prints, as the last
// line of its standard output, one JSON record:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of endToEnd; with
// -trace 1 the run records spans around every call into a layer's public
// functions and the metrics are the per-layer metrics of perLayer. Every
// workload checks the program's outputs against pinned or independently
// recomputed references; a mismatch counts the op as failed, sets
// "correct" to false and makes the process exit 1.
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload juliet --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every -trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"run_ms_geomean", "ms"},
	{"model_overhead_pct", "%"},
	{"mem_overhead_pct", "%"},
	{"good_frac", "fraction"},
	{"heap_live_mb", "MiB"},
}

// perLayer lists the metrics every -trace 1 run reports, on every workload.
// op_p99_us is here, ungated, because its run-to-run spread on a shared
// 2-vCPU host reached 35% for serve, beyond any bound the gate allows.
// The counts cover exactly one pass over the workload's input (one Serve
// call's requests for serve), so they repeat exactly for a given seed.
var perLayer = []metricDef{
	{"op_p99_us", "us"},
	{"input.build_ms", "ms"},
	{"instrument.apply_us", "us"},
	{"instrument.checks_static", "count"},
	{"engine.preinstrument_s", "s"},
	{"engine.new_machine_us", "us"},
	{"engine.release_us", "us"},
	{"engine.alloc_kb_per_op", "KiB"},
	{"engine.cache_prefills", "count"},
	{"engine.cache_hits", "count"},
	{"engine.cache_misses", "count"},
	{"engine.cache_overflows", "count"},
	{"interp.run_us", "us"},
	{"interp.run_us.CECSan", "us"},
	{"interp.ns_per_instr", "ns"},
	{"interp.instructions", "count"},
	{"interp.checks_executed", "count"},
	{"interp.mallocs", "count"},
	{"interp.frees", "count"},
	{"interp.libc_calls", "count"},
	{"core.check_ns", "ns"},
	{"core.table_allocs", "count"},
	{"core.table_high_water", "count"},
	{"core.meta_peak_kb", "KiB"},
	{"harness.model_cycles.native", "cycles"},
	{"harness.model_cycles.instrumented", "cycles"},
	{"dispatch.loop_us", "us"},
	{"traffic.generated", "count"},
	{"traffic.completed", "count"},
	{"traffic.shed", "count"},
	{"traffic.faults", "count"},
	{"traffic.deadline_misses", "count"},
	{"self.input_ms", "ms"},
	{"self.instrument_ms", "ms"},
	{"self.engine_ms", "ms"},
	{"self.interp_ms", "ms"},
	{"self.dispatch_ms", "ms"},
	{"trace.unattributed_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted int64
	failed    int64
	// problems describes every failed output check, for standard error.
	problems []string
	// metrics holds the end-to-end metrics, or the per-layer ones when
	// tracing.
	metrics map[string]float64
	// meta is workload-specific run metadata for the metadata record.
	meta map[string]any
}

// fail records one failed output check covering n ops; a check that
// covers no op (a reference or aggregate check) still makes the run
// incorrect.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"juliet": runJuliet,
	"spec":   runSpec,
	"serve":  runServe,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type recordJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run() (int, error) {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: juliet, spec or serve")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for the span file and result records")
	flag.Parse()
	cfg.trace = traceFlag == 1
	runWorkload, ok := workloads[cfg.workload]
	switch {
	case !ok:
		return 0, fmt.Errorf("unknown -workload %q (juliet, spec or serve)", cfg.workload)
	case cfg.seconds <= 0:
		return 0, fmt.Errorf("-seconds must be positive")
	case traceFlag != 0 && traceFlag != 1:
		return 0, fmt.Errorf("-trace must be 0 or 1")
	}

	out, err := runWorkload(cfg)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rec := recordJSON{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return 0, fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		}
		rec.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	if rec.Attempted < 1 {
		return 0, fmt.Errorf("%s: no op was attempted", cfg.workload)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "output check failed:", p)
	}

	meta := runMeta(cfg)
	for k, v := range out.meta {
		meta[k] = v
	}
	metaLine, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return 0, err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return 0, err
	}
	if err := writeResult(cfg, metaLine, line); err != nil {
		return 0, err
	}
	fmt.Println(string(metaLine))
	fmt.Println(string(line))
	if !rec.Correct {
		return 1, nil
	}
	return 0, nil
}

// runMeta is the metadata every result record carries.
func runMeta(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"commit":     commit(),
		"go_version": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"workers":    1,
	}
}

// commit identifies the measured code: the VCS revision the binary was
// built from when the build saw one, otherwise a digest of every Go source
// and module file of the checkout (the benchmark may run from a plain
// source tree).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// writeResult keeps a copy of the metadata and result lines under the
// output directory, one file per (workload, seed, trace) triple.
func writeResult(cfg config, lines ...[]byte) error {
	dir := filepath.Join(cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, btoi(cfg.trace))
	var b strings.Builder
	for _, l := range lines {
		b.Write(l)
		b.WriteByte('\n')
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(b.String()), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// deadline returns when a measured phase of the configured length ends.
func deadline(start time.Time, seconds float64) time.Time {
	return start.Add(time.Duration(seconds * float64(time.Second)))
}

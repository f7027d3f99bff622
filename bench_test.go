// Root benchmark harness: one benchmark per table and figure of the
// paper's evaluation (see DESIGN.md's experiment index). Sub-benchmarks
// carry the row/series structure, so
//
//	go test -bench 'Table4' -benchtime=1x
//
// prints one wall-time line per (workload, sanitizer) cell of Table IV.
// The cmd/julietbench, cmd/flawbench and cmd/specbench binaries print the
// fully formatted tables, including the derived overhead percentages.
package cecsan_test

import (
	"errors"
	"fmt"
	"testing"

	"cecsan/internal/alloc"
	"cecsan/internal/core"
	"cecsan/internal/flaws"
	"cecsan/internal/harness"
	"cecsan/internal/instrument"
	"cecsan/internal/interp"
	"cecsan/internal/juliet"
	"cecsan/internal/mem"
	"cecsan/internal/rt"
	"cecsan/internal/sanitizers"
	"cecsan/internal/specsim"
	"cecsan/internal/tagptr"
)

// BenchmarkTable1JulietGeneration measures generating the Table I suite
// (scaled: 1/20th of each CWE per iteration).
func BenchmarkTable1JulietGeneration(b *testing.B) {
	counts := juliet.TableI()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, cwe := range juliet.AllCWEs() {
			cases, err := juliet.Generate(cwe, counts[cwe]/20)
			if err != nil {
				b.Fatal(err)
			}
			total += len(cases)
		}
		b.ReportMetric(float64(total), "cases")
	}
}

// BenchmarkTable2DetectionRates evaluates a scaled Table II per tool and
// reports the overall detection rate as a metric.
func BenchmarkTable2DetectionRates(b *testing.B) {
	var suite []*juliet.Case
	for _, cwe := range juliet.AllCWEs() {
		cases, err := juliet.Generate(cwe, 24)
		if err != nil {
			b.Fatal(err)
		}
		suite = append(suite, cases...)
	}
	tools := []sanitizers.Name{
		sanitizers.CECSan, sanitizers.PACMem, sanitizers.CryptSan,
		sanitizers.HWASan, sanitizers.ASan, sanitizers.SoftBound,
	}
	for _, tool := range tools {
		tool := tool
		b.Run(string(tool), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eval, err := harness.EvaluateJuliet(suite, []sanitizers.Name{tool}, 0)
				if err != nil {
					b.Fatal(err)
				}
				var det, total int
				for _, s := range eval.Tools[0].PerCWE {
					det += s.Detected + s.Crashed
					total += s.Total
				}
				b.ReportMetric(100*float64(det)/float64(total), "detect%")
			}
		})
	}
}

// BenchmarkTable3LinuxFlaws runs the ten CVE scenarios under CECSan,
// reporting the detection count.
func BenchmarkTable3LinuxFlaws(b *testing.B) {
	list := flaws.All()
	for i := 0; i < b.N; i++ {
		detected := 0
		for _, fl := range list {
			p, inputs := fl.Build(false)
			san, err := sanitizers.New(sanitizers.CECSan)
			if err != nil {
				b.Fatal(err)
			}
			ip := instrument.Apply(p, san.Profile)
			m, err := interp.New(ip, san, interp.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			for _, in := range inputs {
				m.Feed(in)
			}
			res := m.Run()
			if res.Violation != nil || res.Fault != nil || errors.Is(res.Err, interp.ErrCallDepth) {
				detected++
			}
		}
		if detected != len(list) {
			b.Fatalf("detected %d of %d CVEs", detected, len(list))
		}
		b.ReportMetric(float64(detected), "CVEs")
	}
}

// benchWorkloads runs each (workload, sanitizer) cell as a sub-benchmark:
// the ns/op column is the cell of Table IV/V before overhead division.
func benchWorkloads(b *testing.B, ws []specsim.Workload) {
	tools := []sanitizers.Name{sanitizers.Native, sanitizers.ASan, sanitizers.ASanLite, sanitizers.CECSan}
	for _, w := range ws {
		for _, tool := range tools {
			w, tool := w, tool
			b.Run(fmt.Sprintf("%s/%s", w.Name, tool), func(b *testing.B) {
				p := w.Build()
				san, err := sanitizers.New(tool)
				if err != nil {
					b.Fatal(err)
				}
				ip := instrument.Apply(p, san.Profile)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					san, err := sanitizers.New(tool)
					if err != nil {
						b.Fatal(err)
					}
					m, err := interp.New(ip, san, interp.DefaultOptions())
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					res := m.Run()
					if !res.Ok() {
						b.Fatalf("%+v", res)
					}
					b.ReportMetric(float64(res.Stats.PeakRSS), "rss-bytes")
					b.ReportMetric(float64(res.Stats.ChecksExecuted), "checks")
				}
			})
		}
	}
}

// BenchmarkTable4Spec2006 regenerates the Table IV cells (smoke scale; use
// cmd/specbench -suite 2006 for the full-scale table).
func BenchmarkTable4Spec2006(b *testing.B) {
	benchWorkloads(b, specsim.Smoke()[:8])
}

// BenchmarkTable5Spec2017 regenerates the Table V cells at smoke scale,
// including the parallel (OpenMP-analogue) workloads.
func BenchmarkTable5Spec2017(b *testing.B) {
	benchWorkloads(b, specsim.Smoke()[8:])
}

// BenchmarkFigure4Ablation measures CECSan's §II.F optimizations one by
// one on the monotonic-sweep workload (462.libquantum's pattern).
func BenchmarkFigure4Ablation(b *testing.B) {
	w, ok := specsim.ByName("smoke.libquantum")
	if !ok {
		// Smoke() names are resolvable only through the slice.
		for _, sw := range specsim.Smoke() {
			if sw.Name == "smoke.libquantum" {
				w, ok = sw, true
			}
		}
	}
	if !ok {
		b.Fatal("smoke.libquantum not found")
	}
	p := w.Build()

	configs := map[string]func(*core.Options){
		"all-on":       func(*core.Options) {},
		"no-monotonic": func(o *core.Options) { o.OptMonotonic = false },
		"no-loopinv":   func(o *core.Options) { o.OptLoopInvariant = false },
		"no-typebased": func(o *core.Options) { o.OptTypeBased = false },
		"no-redundant": func(o *core.Options) { o.OptRedundant = false },
		"no-subobject": func(o *core.Options) { o.SubObject = false },
		"all-off": func(o *core.Options) {
			o.OptMonotonic, o.OptLoopInvariant, o.OptTypeBased, o.OptRedundant = false, false, false, false
		},
	}
	for name, tweak := range configs {
		name, tweak := name, tweak
		b.Run(name, func(b *testing.B) {
			opts := core.DefaultOptions()
			tweak(&opts)
			san, err := core.Sanitizer(opts)
			if err != nil {
				b.Fatal(err)
			}
			ip := instrument.Apply(p, san.Profile)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				san, err := core.Sanitizer(opts)
				if err != nil {
					b.Fatal(err)
				}
				m, err := interp.New(ip, san, interp.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res := m.Run()
				if !res.Ok() {
					b.Fatalf("%+v", res)
				}
				b.ReportMetric(float64(res.Stats.ChecksExecuted), "checks")
			}
		})
	}
}

// BenchmarkMetadataTable measures the §II.B table operations themselves:
// allocation with free-list reuse (Figure 2) and the Algorithm 1 check.
func BenchmarkMetadataTable(b *testing.B) {
	b.Run("alloc-free-churn", func(b *testing.B) {
		tbl, err := core.NewTable(tagptr.X8664)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx, ok := tbl.Allocate(0x1000, 0x1040, false)
			if !ok {
				b.Fatal("exhausted")
			}
			tbl.Free(idx)
		}
	})
	b.Run("algorithm1-check", func(b *testing.B) {
		r, err := core.New(core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		env := newBenchEnv(b)
		if err := r.Attach(env); err != nil {
			b.Fatal(err)
		}
		p, _, err := r.Malloc(64)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if v := r.Check(p, rt.PtrMeta{}, int64(i&63), 1, rt.Read); v != nil {
				b.Fatal(v)
			}
		}
	})
}

// BenchmarkTableExhaustion measures the §V exhaustion fallback path.
func BenchmarkTableExhaustion(b *testing.B) {
	tbl, err := core.NewTable(tagptr.X8664)
	if err != nil {
		b.Fatal(err)
	}
	for {
		if _, ok := tbl.Allocate(0x1000, 0x1040, false); !ok {
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.Allocate(0x1000, 0x1040, false); ok {
			b.Fatal("not exhausted")
		}
	}
}

// newBenchEnv builds a standalone machine environment for white-box
// runtime benchmarks.
func newBenchEnv(b *testing.B) *rt.Env {
	b.Helper()
	space, err := mem.NewSpace(47)
	if err != nil {
		b.Fatal(err)
	}
	return &rt.Env{Space: space, Heap: alloc.NewHeap()}
}

// Command julietbench regenerates the paper's security evaluation on the
// Juliet-style suite: Table I (suite composition) and Table II (per-CWE
// detection rates for CECSan, PACMem, CryptSan, HWASan, ASan and
// SoftBound/CETS, each on its published evaluation subset).
//
// Usage:
//
//	julietbench [-table 1|2] [-scale 1.0] [-workers N] [-progress N]
//	            [-json BENCH_table2.json]
//
// -scale shrinks the suite proportionally (e.g. 0.1 runs ~1,575 cases) for
// quick runs; 1.0 is the full 15,752-case Table I suite. -json additionally
// writes a machine-readable benchmark record (wall time, cases/sec,
// instrumentation-cache hit rate, per-tool rates and false positives).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cecsan/internal/cliutil"
	"cecsan/internal/harness"
	"cecsan/internal/juliet"
	"cecsan/internal/sanitizers"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "julietbench:", err)
		os.Exit(1)
	}
}

// toolJSON is one tool's entry in the -json record.
type toolJSON struct {
	Name              string             `json:"name"`
	Cases             int                `json:"cases"`
	Runs              int64              `json:"runs"`
	FalsePositives    int                `json:"false_positives"`
	RatesPct          map[string]float64 `json:"rates_pct"`
	WallSeconds       float64            `json:"wall_seconds"`
	CasesPerSec       float64            `json:"cases_per_sec"`
	CacheHits         int64              `json:"cache_hits"`
	CacheMisses       int64              `json:"cache_misses"`
	CachePrefills     int64              `json:"cache_prefills"`
	CacheOverflows    int64              `json:"cache_overflows"`
	CacheHitRate      float64            `json:"cache_hit_rate"`
	InstrumentSeconds float64            `json:"instrument_seconds"`
	ExecuteSeconds    float64            `json:"execute_seconds"`
}

// benchJSON is the BENCH_table2.json schema.
type benchJSON struct {
	Bench       string     `json:"bench"`
	Table       int        `json:"table"`
	Scale       float64    `json:"scale"`
	Cases       int        `json:"cases"`
	Workers     int        `json:"workers"`
	WallSeconds float64    `json:"wall_seconds"`
	CasesPerSec float64    `json:"cases_per_sec"`
	Tools       []toolJSON `json:"tools"`
}

func run() error {
	table := flag.Int("table", 2, "which table to regenerate (1 or 2)")
	scale := flag.Float64("scale", 1.0, "suite scale factor (1.0 = full 15,752 cases)")
	workers := cliutil.WorkersFlag()
	progress := flag.Int("progress", 200, "print per-tool progress every N cases (0 = off)")
	jsonPath := flag.String("json", "", "also write a machine-readable benchmark record to this path")
	obsFlags := cliutil.ObsFlagsCmd()
	flag.Parse()

	o, srv, err := obsFlags.Build()
	if err != nil {
		return err
	}
	harness.Obs = o
	defer func() { harness.Obs = nil }()

	counts := juliet.TableI()
	var suite []*juliet.Case
	for _, cwe := range juliet.AllCWEs() {
		n := int(float64(counts[cwe]) * *scale)
		if n < 1 {
			n = 1
		}
		cases, err := juliet.Generate(cwe, n)
		if err != nil {
			return err
		}
		suite = append(suite, cases...)
	}

	if *table == 1 {
		fmt.Println(harness.FormatTable1(suite))
		return nil
	}

	if *progress > 0 {
		harness.ProgressEvery = *progress
		harness.Progress = func(tool sanitizers.Name, done, total int) {
			fmt.Fprintf(os.Stderr, "  %-14s %d/%d cases\n", tool, done, total)
		}
	}

	tools := []sanitizers.Name{
		sanitizers.CECSan, sanitizers.PACMem, sanitizers.CryptSan,
		sanitizers.HWASan, sanitizers.ASan, sanitizers.SoftBound,
	}
	fmt.Printf("evaluating %d cases x %d tools...\n", len(suite), len(tools))
	start := time.Now()
	eval, err := harness.EvaluateJuliet(suite, tools, *workers)
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	fmt.Println(harness.FormatTable2(eval))
	fmt.Printf("(%d cases, %.1fs)\n", len(suite), wall)

	var totalRuns int64
	var totalHits, totalLookups int64
	for _, tr := range eval.Tools {
		totalRuns += tr.Engine.Runs
		totalHits += tr.Engine.CacheHits
		totalLookups += tr.Engine.CacheHits + tr.Engine.CacheMisses
	}
	hitRate := 0.0
	if totalLookups > 0 {
		hitRate = float64(totalHits) / float64(totalLookups)
	}
	fmt.Printf("engine: %d runs, %.0f cases/sec, instrumentation cache hit rate %.1f%%\n",
		totalRuns, float64(totalRuns)/wall, 100*hitRate)

	if *jsonPath != "" {
		rec := benchJSON{
			Bench:       "table2",
			Table:       *table,
			Scale:       *scale,
			Cases:       len(suite),
			Workers:     cliutil.ResolveWorkers(*workers),
			WallSeconds: wall,
			CasesPerSec: float64(totalRuns) / wall,
		}
		for _, tr := range eval.Tools {
			tj := toolJSON{
				Name:              string(tr.Name),
				Cases:             tr.Cases,
				Runs:              tr.Engine.Runs,
				FalsePositives:    tr.TotalFalsePositives(),
				RatesPct:          make(map[string]float64),
				WallSeconds:       tr.Engine.Wall.Seconds(),
				CasesPerSec:       tr.Engine.CasesPerSec(),
				CacheHits:         tr.Engine.CacheHits,
				CacheMisses:       tr.Engine.CacheMisses,
				CachePrefills:     tr.Engine.CachePrefills,
				CacheOverflows:    tr.Engine.CacheOverflows,
				CacheHitRate:      tr.Engine.CacheHitRate(),
				InstrumentSeconds: tr.Engine.InstrumentTime.Seconds(),
				ExecuteSeconds:    tr.Engine.ExecuteTime.Seconds(),
			}
			for cwe, s := range tr.PerCWE {
				tj.RatesPct[cwe.String()] = s.Rate()
			}
			rec.Tools = append(rec.Tools, tj)
		}
		if err := cliutil.WriteJSON(*jsonPath, rec); err != nil {
			return err
		}
	}
	return obsFlags.Finish(o, srv, 0)
}

// Command cecsan-run executes a named workload — or a C-like source file —
// under a chosen sanitizer with individually toggleable CECSan
// optimizations: the driver behind the §II.F ablation experiments (Figure 4)
// and general poking-around.
//
// Usage:
//
//	cecsan-run -workload 462.libquantum [-sanitizer CECSan]
//	           [-no-subobject] [-no-redundant] [-no-loopinv] [-no-monotonic] [-no-typebased]
//	           [-hardened] [-gen-bits N] [-index-delay K] [-quarantine-bytes B]
//	cecsan-run -src prog.csc [-input hex] [-sanitizer ASan]
//	cecsan-run -list
//
// The §II.F ablations are measured with the check-site profiler: run once
// with a pass disabled and -profile-json baseline.json, then run with the
// pass enabled and -profile-diff baseline.json — the diff table shows
// exactly which site tables the pass emptied (fires dropping to zero or to
// the grouped stride).
//
// The temporal-hardening knobs apply to the CECSan-family sanitizers only:
// -hardened turns on every mitigation at its default strength, and the three
// fine-grained knobs override individual dials (a non-zero value implies the
// corresponding mitigation even without -hardened).
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cecsan/csrc"
	"cecsan/internal/cliutil"
	"cecsan/internal/core"
	"cecsan/internal/engine"
	"cecsan/internal/obs"
	"cecsan/internal/rt"
	"cecsan/internal/sanitizers"
	"cecsan/internal/specsim"
	"cecsan/prog"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cecsan-run:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload name (see -list)")
	srcPath := flag.String("src", "", "compile and run a C-like source file instead of a workload")
	inputs := flag.String("input", "", "comma-separated hex payloads fed to the program's recv/fgets calls")
	list := flag.Bool("list", false, "list available workloads")
	tool := flag.String("sanitizer", "CECSan", "sanitizer name")
	noSub := flag.Bool("no-subobject", false, "disable §II.D sub-object narrowing")
	noRed := flag.Bool("no-redundant", false, "disable redundant-check elimination")
	noInv := flag.Bool("no-loopinv", false, "disable loop-invariant check relocation")
	noMono := flag.Bool("no-monotonic", false, "disable monotonic check grouping")
	noType := flag.Bool("no-typebased", false, "disable type-based check removal")
	hardened := flag.Bool("hardened", false, "enable all temporal-reuse mitigations at default strength (CECSan family)")
	genBits := flag.Uint("gen-bits", 0, "generation-stamp width in bits (0 = default when -hardened, else off)")
	indexDelay := flag.Int("index-delay", 0, "freed metatable indices held back until this many others are freed (0 = default when -hardened, else off)")
	quarBytes := flag.Int64("quarantine-bytes", 0, "allocator quarantine budget in bytes (0 = default when -hardened, else off)")
	seed := cliutil.SeedFlag(0, "seed for the program rand() stream and RNG-bearing runtimes (HWASan tags); 0 = stock")
	maxSteps := cliutil.MaxStepsFlag()
	maxDepth := cliutil.MaxDepthFlag()
	workers := cliutil.WorkersFlag()
	profileDiff := flag.String("profile-diff", "", "diff this run's check-site profile against a baseline written by -profile-json (implies -profile-checks)")
	obsFlags := cliutil.ObsFlagsCmd()
	flag.Parse()
	if *profileDiff != "" {
		obsFlags.ProfileChecks = true
	}

	if *list {
		for _, w := range append(specsim.Spec2006(), append(specsim.Spec2017(), specsim.Smoke()...)...) {
			par := ""
			if w.Parallel {
				par = " (parallel)"
			}
			fmt.Printf("%-20s suite %s%s\n", w.Name, w.Suite, par)
		}
		return nil
	}

	var programName string
	var build func() *prog.Program
	if *srcPath != "" {
		text, err := os.ReadFile(*srcPath)
		if err != nil {
			return err
		}
		compiled, err := csrc.Compile(string(text))
		if err != nil {
			return err
		}
		programName = *srcPath
		build = func() *prog.Program { return compiled }
	} else {
		w, ok := specsim.ByName(*workload)
		if !ok {
			for _, sw := range specsim.Smoke() {
				if sw.Name == *workload {
					w, ok = sw, true
					break
				}
			}
		}
		if !ok {
			return fmt.Errorf("unknown workload %q (try -list)", *workload)
		}
		programName = w.Name
		build = w.Build
	}

	o, srv, err := obsFlags.Build()
	if err != nil {
		return err
	}
	eopts := engine.Options{
		Workers:         *workers,
		Seed:            *seed,
		RuntimeSeed:     *seed,
		MaxInstructions: *maxSteps,
		MaxCallDepth:    *maxDepth,
		Obs:             o,
	}
	toolName := sanitizers.Name(*tool)
	if *hardened {
		// -hardened selects the temporally hardened variant; tools without
		// one (no tag-index reuse window to close) run unchanged.
		if h, ok := sanitizers.Hardened(toolName); ok {
			toolName = h
		}
	}
	if toolName == sanitizers.CECSan || toolName == sanitizers.CECSanHardened {
		opts := core.DefaultOptions()
		if toolName == sanitizers.CECSanHardened {
			opts = core.HardenedOptions()
		}
		opts.SubObject = !*noSub
		opts.OptRedundant = !*noRed
		opts.OptLoopInvariant = !*noInv
		opts.OptMonotonic = !*noMono
		opts.OptTypeBased = !*noType
		if *genBits > 0 {
			opts.TemporalGenerations = true
			opts.GenerationBits = *genBits
		}
		if *indexDelay > 0 {
			opts.IndexDelay = *indexDelay
		}
		if *quarBytes > 0 {
			opts.QuarantineBytes = *quarBytes
		}
		eopts.CECSan = &opts
	}
	eng, err := engine.New(toolName, eopts)
	if err != nil {
		return err
	}

	p := build()
	m, err := eng.NewMachine(p)
	if err != nil {
		return err
	}
	if *inputs != "" {
		for _, h := range strings.Split(*inputs, ",") {
			payload, err := hex.DecodeString(strings.TrimSpace(h))
			if err != nil {
				return fmt.Errorf("bad -input payload %q: %w", h, err)
			}
			m.Feed(payload)
		}
	}
	start := time.Now()
	res := m.Run()
	dur := time.Since(start)

	fmt.Printf("workload   %s under %s\n", programName, m.Runtime().Name())
	fmt.Printf("wall time  %v\n", dur)
	if res.Violation != nil {
		fmt.Printf("VIOLATION  %v\n", res.Violation)
	}
	if res.Fault != nil {
		fmt.Printf("FAULT      %v\n", res.Fault)
	}
	if res.Err != nil {
		fmt.Printf("ERROR      %v\n", res.Err)
	}
	for _, line := range m.Output() {
		fmt.Printf("output     %s\n", line)
	}
	s := res.Stats
	fmt.Printf("instructions      %d\n", s.Instructions)
	fmt.Printf("checks executed   %d\n", s.ChecksExecuted)
	fmt.Printf("subptr ops        %d\n", s.SubPtrOps)
	fmt.Printf("mallocs / frees   %d / %d\n", s.Mallocs, s.Frees)
	fmt.Printf("peak program      %d bytes\n", s.PeakProgramBytes)
	fmt.Printf("peak overhead     %d bytes\n", s.PeakOverheadBytes)
	fmt.Printf("peak RSS          %d bytes\n", s.PeakRSS)
	if th, ok := m.Runtime().(rt.TemporalHardened); ok &&
		(strings.HasSuffix(m.Runtime().Name(), "-hardened") || *genBits > 0 || *indexDelay > 0 || *quarBytes > 0) {
		ts := th.TemporalStats()
		fmt.Printf("temporal          gen-wraps %d  index-spills %d  quarantine evict %d / flush %d / held %d bytes\n",
			ts.GenerationWraps, ts.IndexSpills, ts.QuarantineEvictions, ts.QuarantineFlushes, ts.QuarantinedBytes)
	}
	m.Release()
	if *profileDiff != "" && o != nil && o.Sites != nil {
		baseline, err := obs.LoadSitesFile(*profileDiff)
		if err != nil {
			return err
		}
		fmt.Printf("\ncheck-site diff vs %s\n", *profileDiff)
		obs.FormatSiteDiff(os.Stdout, baseline, o.Sites.Sites())
	}
	// The -profile-checks table attributes the observed check fires against
	// the run's ChecksExecuted total.
	return obsFlags.Finish(o, srv, res.Stats.ChecksExecuted)
}

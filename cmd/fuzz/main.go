// Command fuzz runs a differential fuzzing campaign: seeded random
// programs with ground-truth bug injection, executed across every
// sanitizer in the registry, with outcomes classified against the oracle
// (internal/fuzz). A campaign is deterministic in (-seed, -count), and with
// -faults also in the fault seed: two runs produce byte-identical -json
// records regardless of -workers.
//
// Usage:
//
//	fuzz -seed 1 -count 1000 [-workers N] [-json report.json]
//	     [-repro dir] [-progress]
//	     [-faults SEED] [-hardened] [-max-steps N] [-max-depth N]
//	     [-checkpoint f.ckpt] [-checkpoint-every N] [-resume f.ckpt]
//	     [-metrics-json m.json] [-trace t.json] [-http 127.0.0.1:0]
//	     [-profile-checks]
//	fuzz -emit 42                 # print the program for one case seed
//
// -checkpoint arms periodic durable snapshots: the campaign runs in
// -checkpoint-every-case chunks (default 500) and atomically rewrites the
// snapshot between chunks. -resume restores one (validated against seed,
// fault seed, hardened mode, count and tool set) and continues from its
// case cursor; the resumed report — case digest included — is
// byte-identical to an uninterrupted run's. -resume implies -checkpoint
// to the same path unless one is given, so a resumed campaign keeps
// snapshotting.
//
// The observability flags attach internal/obs to every engine in the
// fan-out; -http serves live metric snapshots and pprof while the campaign
// runs. Campaign records stay byte-identical with or without them.
//
// Exit status separates verdicts from harness health:
//
//	0  every outcome matched its oracle expectation
//	1  findings (oracle disagreements); minimized reproducers land in -repro
//	2  harness faults (recovered panics, budget exhaustions) or internal
//	   errors — the campaign itself is suspect, whatever the findings say
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"cecsan/internal/checkpoint"
	"cecsan/internal/cliutil"
	"cecsan/internal/fuzz"
	"cecsan/internal/obs"
)

// Exit codes: findings are a verdict about the sanitizers; harness faults
// and internal errors are a verdict about the harness. The latter dominates.
const (
	exitOK       = 0
	exitFindings = 1
	exitHarness  = 2
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fuzz:", err)
	}
	os.Exit(code)
}

func run() (int, error) {
	seed := flag.Uint64("seed", 1, "campaign base seed")
	count := flag.Int("count", 1000, "number of generated cases")
	jsonPath := flag.String("json", "", "write the deterministic campaign record to this path")
	reproDir := flag.String("repro", "", "write minimized .csc reproducers for findings into this directory")
	emit := flag.Uint64("emit", 0, "print the generated program for one case seed and exit")
	progress := flag.Bool("progress", false, "print campaign progress to stderr")
	faults := flag.Uint64("faults", 0, "fault-injection seed: derive a deterministic fault plan per case (0 = off)")
	hardened := flag.Bool("hardened", false, "swap CECSan-family tools for their temporally hardened variants (reuse-window shapes become mandatory detections)")
	maxSteps := cliutil.MaxStepsFlag()
	maxDepth := cliutil.MaxDepthFlag()
	workers := cliutil.WorkersFlag()
	ckptPath := flag.String("checkpoint", "", "write a durable campaign snapshot to this path between chunks")
	ckptEvery := flag.Int("checkpoint-every", 0, "snapshot chunk size in cases (0 = 500)")
	resumePath := flag.String("resume", "", "restore this snapshot and continue from its case cursor")
	crashAfter := flag.Int("crash-after", 0, "kill -9 this process after N cases this incarnation (crash-injection testing; 0 = off)")
	obsFlags := cliutil.ObsFlagsCmd()
	flag.Parse()

	if *emit != 0 {
		c := fuzz.Generate(*emit)
		fmt.Print(c.Source)
		return exitOK, nil
	}

	o, srv, err := obsFlags.Build()
	if err != nil {
		return exitHarness, err
	}
	if *progress && o == nil {
		// The status line reads its rates from the registry, so -progress
		// alone still attaches a (registry-only) observer.
		o = obs.New()
	}

	var resume *fuzz.CampaignCheckpoint
	if *resumePath != "" {
		var ck fuzz.CampaignCheckpoint
		if err := checkpoint.Load(*resumePath, checkpoint.KindFuzz, &ck); err != nil {
			return exitHarness, fmt.Errorf("resume: %w", err)
		}
		resume = &ck
		if *ckptPath == "" {
			// A resumed campaign keeps snapshotting where it left off.
			*ckptPath = *resumePath
		}
	}

	cfg := fuzz.Config{
		Seed:            *seed,
		Count:           *count,
		Workers:         cliutil.ResolveWorkers(*workers),
		MaxInstructions: *maxSteps,
		MaxCallDepth:    *maxDepth,
		FaultSeed:       *faults,
		Hardened:        *hardened,
		Obs:             o,
		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
		Resume:          resume,
	}
	campaignStart := time.Now()
	if *progress {
		cfg.Progress = func(done, total int) {
			cps, _ := o.Registry.Value("fuzz_cases_per_sec")
			hit, _ := o.Registry.Value("fuzz_cache_hit_rate")
			fts, _ := o.Registry.Value("fuzz_faults_total")
			eta := "?"
			if done > 0 {
				left := time.Duration(float64(time.Since(campaignStart)) * float64(total-done) / float64(done))
				eta = left.Round(time.Second).String()
			}
			fmt.Fprintf(os.Stderr, "\rfuzz: %d/%d cases  %.0f runs/s  cache %.1f%%  faults %.0f  ETA %s   ",
				done, total, cps, 100*hit, fts, eta)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	if *crashAfter > 0 {
		// Crash injection for resume testing: die hard (no deferred cleanup,
		// no final snapshot) once this incarnation has processed its quota.
		// The base is the resume cursor, so a restarted incarnation makes
		// progress before dying again instead of re-crashing in place.
		base := 0
		if resume != nil {
			base = resume.NextCase
		}
		inner := cfg.Progress
		cfg.Progress = func(done, total int) {
			if inner != nil {
				inner(done, total)
			}
			if done-base >= *crashAfter {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}
	runner, err := fuzz.NewRunner(cfg)
	if err != nil {
		return exitHarness, err
	}
	rep, err := runner.Campaign()
	if err != nil {
		return exitHarness, err
	}

	fmt.Printf("fuzz campaign seed=%d count=%d: %d injected, %d clean\n",
		rep.Seed, rep.Count, rep.Injected, rep.CleanN)
	if rep.FaultSeed != 0 {
		fmt.Printf("  fault injection on (fault_seed=%d)\n", rep.FaultSeed)
	}
	if rep.Hardened {
		fmt.Println("  hardened profiles (CECSan-family temporal mitigations on)")
	}
	for _, tr := range rep.Tools {
		fmt.Printf("  %-16s detect %-5d miss(doc) %-5d prob %d/%d  clean %-5d pressure %-5d faults %-3d findings %d\n",
			tr.Tool, tr.Detected, tr.MissDoc, tr.DetectedProb, tr.MissProb, tr.Clean, tr.Pressure, tr.Faults, tr.Findings)
	}

	if *jsonPath != "" {
		if err := cliutil.WriteJSON(*jsonPath, rep); err != nil {
			return exitHarness, err
		}
	}
	for i, f := range rep.Findings {
		fmt.Printf("FINDING %d: tool=%s shape=%s reason=%s seed=%d %s\n",
			i, f.Tool, f.Shape, f.Reason, f.Seed, f.Detail)
		if *reproDir != "" {
			if err := os.MkdirAll(*reproDir, 0o755); err != nil {
				return exitHarness, err
			}
			path := filepath.Join(*reproDir, fmt.Sprintf("finding_%03d_%s.csc", i, f.Reason))
			if err := os.WriteFile(path, []byte(f.Source), 0o644); err != nil {
				return exitHarness, err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	for _, fc := range rep.FaultCases {
		fmt.Printf("HARNESS FAULT: tool=%s shape=%s class=%s seed=%d\n",
			fc.Tool, fc.Shape, fc.Class, fc.Seed)
	}
	if err := obsFlags.Finish(o, srv, 0); err != nil {
		return exitHarness, err
	}
	switch {
	case rep.HarnessFaults > 0:
		return exitHarness, fmt.Errorf("%d harness faults (and %d findings)",
			rep.HarnessFaults, len(rep.Findings))
	case len(rep.Findings) > 0:
		return exitFindings, fmt.Errorf("%d findings", len(rep.Findings))
	}
	fmt.Println("no findings: every outcome matched its oracle expectation")
	return exitOK, nil
}

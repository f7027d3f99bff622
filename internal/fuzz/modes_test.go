package fuzz

import (
	"fmt"
	"strings"
	"testing"

	"cecsan/csrc"
	"cecsan/internal/engine"
	"cecsan/internal/interp"
	"cecsan/internal/sanitizers"
	"cecsan/internal/specsim"
	"cecsan/internal/splitmix"
	"cecsan/prog"
)

// TestVerdictsAcrossModes is the execution-mode property over modeCorpus:
// machines decoded with and without superinstructions, on pooled and on
// FreshRuntime engines, with one worker and with four, must give every
// program the same verdict, return value and complete interp.Stats (PeakRSS
// included). A superinstruction advances the instruction counter by its
// length, executes the same checks and charges the same allocator traffic,
// so even ChecksExecuted, DegradedAllocs and the temporal counters match
// exactly. Each one-worker pooled engine runs the corpus twice, so its
// second pass runs on resources the first one reset. Every fuzz case's
// verdict must also be one classify accepts under ExpectFor: a bucket, not
// a finding. Every superinstruction must be formed somewhere in the corpus,
// so the fused/unfused comparison cannot hold vacuously.
//
// The shared-cache mode then runs the tool pairs whose instrumentation
// configs coincide (HWASan and ASan; CECSan and CECSan-hardened) on one
// Cache, where the second tool of a pair runs the programs the first one
// instrumented, and requires the results of the private-cache runs.
func TestVerdictsAcrossModes(t *testing.T) {
	tools := []sanitizers.Name{
		sanitizers.Native, sanitizers.CECSan, sanitizers.CECSanHardened,
		sanitizers.ASan, sanitizers.HWASan, sanitizers.SoftBound,
	}
	modes := []struct {
		name   string
		opts   engine.Options
		passes int
	}{
		{"fused/pooled", engine.Options{Workers: 1}, 2},
		{"unfused/pooled", engine.Options{Workers: 1, DisableFusion: true}, 2},
		{"fused/fresh", engine.Options{Workers: 1, FreshRuntime: true}, 1},
		{"unfused/fresh", engine.Options{Workers: 1, DisableFusion: true, FreshRuntime: true}, 1},
		{"fused/pooled/4 workers", engine.Options{Workers: 4}, 1},
	}
	progs := modeCorpus(t)
	refs := make(map[sanitizers.Name][]*interp.Result, len(tools))
	formed := map[string]int{}
	for _, tool := range tools {
		profile, err := sanitizers.ProfileFor(tool)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(string(tool), func(t *testing.T) {
			ref := make([]*interp.Result, len(progs))
			for _, mode := range modes {
				eng := newModeEngine(t, tool, mode.opts)
				if mode.name == "fused/pooled" {
					for _, c := range progs {
						for name, n := range interp.Superinstructions(eng.Instrument(c.p), profile) {
							formed[name] += n
						}
					}
				}
				for pass := 1; pass <= mode.passes; pass++ {
					results := runCorpus(t, eng, progs)
					for i, c := range progs {
						res := results[i]
						if ref[i] == nil {
							ref[i] = res
							if c.oracle != nil {
								if cl := classify(tool, c.oracle, res, false); cl.bucket == "" {
									t.Errorf("%s: verdict %s is a finding (%s %s) against the oracle", c.name, render(res), cl.reason, cl.detail)
								}
							}
							continue
						}
						sameOutcome(t, c.name, fmt.Sprintf("%s pass %d", mode.name, pass), res, ref[i])
					}
				}
			}
			refs[tool] = ref
		})
	}
	for name, n := range formed {
		if n == 0 {
			t.Errorf("superinstruction %s is never formed in the corpus", name)
		}
	}
	t.Logf("superinstructions formed: %v", formed)

	distinct := make(map[prog.Fingerprint]bool)
	for _, c := range progs {
		distinct[c.p.Fingerprint()] = true
	}
	for _, pair := range [][2]sanitizers.Name{
		{sanitizers.HWASan, sanitizers.ASan},
		{sanitizers.CECSan, sanitizers.CECSanHardened},
	} {
		t.Run("shared cache/"+string(pair[0])+"+"+string(pair[1]), func(t *testing.T) {
			cache := engine.NewCache(0)
			for _, tool := range pair {
				ref := refs[tool]
				if ref == nil {
					t.Fatalf("no private-cache results for %s to compare with", tool)
				}
				eng := newModeEngine(t, tool, engine.Options{Workers: 1, Cache: cache})
				results := runCorpus(t, eng, progs)
				for i, c := range progs {
					sameOutcome(t, c.name, string(tool)+" on a shared cache", results[i], ref[i])
				}
			}
			if n := cache.Len(); n != len(distinct) {
				t.Fatalf("shared cache holds %d programs for %d distinct fingerprints: the pair did not share its entries", n, len(distinct))
			}
		})
	}
}

// newModeEngine builds an engine for one mode, seeded like every other.
func newModeEngine(t *testing.T, tool sanitizers.Name, opts engine.Options) *engine.Engine {
	t.Helper()
	opts.Seed, opts.RuntimeSeed = corpusSeed, corpusSeed
	eng, err := engine.New(tool, opts)
	if err != nil {
		t.Fatalf("engine.New(%s): %v", tool, err)
	}
	return eng
}

// runCorpus runs every corpus program on eng through ForEach, so the
// engine's worker count applies, and returns the results in corpus order.
func runCorpus(t *testing.T, eng *engine.Engine, progs []corpusProgram) []*interp.Result {
	t.Helper()
	results := make([]*interp.Result, len(progs))
	err := eng.ForEach(len(progs), func(i int) error {
		res, err := eng.Run(progs[i].p, progs[i].inputs...)
		if err != nil {
			return fmt.Errorf("%s: %w", progs[i].name, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// sameOutcome requires res to match want: complete stats, return value and
// rendered verdict.
func sameOutcome(t *testing.T, name, mode string, res, want *interp.Result) {
	t.Helper()
	if res.Stats != want.Stats {
		t.Fatalf("%s: stats diverge under %s\ngot:  %+v\nwant: %+v", name, mode, res.Stats, want.Stats)
	}
	if res.Ret != want.Ret {
		t.Fatalf("%s: return value %d under %s, want %d", name, res.Ret, mode, want.Ret)
	}
	if got, w := render(res), render(want); got != w {
		t.Fatalf("%s: verdict diverges under %s\ngot:  %s\nwant: %s", name, mode, got, w)
	}
}

// corpusSeed seeds modeCorpus and the engines that run it.
const corpusSeed = 0xF05E

// corpusProgram is one program of modeCorpus. oracle is set for generated
// fuzz cases and nil for the specsim programs.
type corpusProgram struct {
	name   string
	p      *prog.Program
	inputs [][]byte
	oracle *Oracle
}

// modeCorpus is the corpus the execution-mode properties run: those of the
// first 80 cases generated from corpusSeed that compile, plus the specsim
// smoke programs (the parallel x264 and nab included).
func modeCorpus(t *testing.T) []corpusProgram {
	t.Helper()
	var progs []corpusProgram
	for i := 0; i < 80; i++ {
		c := Generate(splitmix.Derive(corpusSeed, uint64(i)))
		p, err := csrc.Compile(c.Source)
		if err != nil {
			continue // generator emitted a shape this tool set can't compile; fine
		}
		progs = append(progs, corpusProgram{fmt.Sprintf("seed %d", i), p, c.Inputs, &c.Oracle})
	}
	if len(progs) == 0 {
		t.Fatal("corpus compiled zero cases; the property was never exercised")
	}
	for _, w := range specsim.Smoke() {
		progs = append(progs, corpusProgram{w.Name, w.Build(), nil, nil})
	}
	return progs
}

// render flattens a result's externally visible outcome — the report, crash
// or error a harness would classify — into a comparable string.
func render(res *interp.Result) string {
	var b strings.Builder
	if res.Violation != nil {
		fmt.Fprintf(&b, "violation{%s %s@%d %s}", res.Violation.Kind, res.Violation.Func, res.Violation.PC, res.Violation.Error())
	}
	if res.Fault != nil {
		fmt.Fprintf(&b, "fault{%v}", res.Fault)
	}
	if res.Err != nil {
		fmt.Fprintf(&b, "err{%v}", res.Err)
	}
	if b.Len() == 0 {
		return "clean"
	}
	return b.String()
}

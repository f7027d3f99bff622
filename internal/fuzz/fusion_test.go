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

// TestFusedMatchesUnfused is the superinstruction equivalence property:
// across a seeded generated corpus plus the specsim smoke programs (the
// parallel x264 and nab included) and a spread of sanitizer models, an
// engine whose machines decode superinstructions (the default) and one with
// DisableFusion must be observationally identical — same violation, fault,
// error and return value, and the same complete interp.Stats (a
// superinstruction advances the instruction counter by its length, executes
// the same checks, and charges the same allocator traffic, so even
// ChecksExecuted, DegradedAllocs and the temporal counters match exactly).
// Every superinstruction must be formed somewhere in the corpus, so the
// property cannot hold vacuously.
func TestFusedMatchesUnfused(t *testing.T) {
	tools := []sanitizers.Name{
		sanitizers.Native, sanitizers.CECSan, sanitizers.CECSanHardened,
		sanitizers.ASan, sanitizers.HWASan, sanitizers.SoftBound,
	}
	const seed = corpusSeed
	progs := modeCorpus(t)

	mk := func(tool sanitizers.Name, disable bool) *engine.Engine {
		eng, err := engine.New(tool, engine.Options{
			Seed: seed, RuntimeSeed: seed, DisableFusion: disable,
		})
		if err != nil {
			t.Fatalf("engine.New(%s): %v", tool, err)
		}
		return eng
	}

	formed := map[string]int{}
	for _, tool := range tools {
		profile, err := sanitizers.ProfileFor(tool)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(string(tool), func(t *testing.T) {
			fused, unfused := mk(tool, false), mk(tool, true)
			for _, c := range progs {
				for name, n := range interp.Superinstructions(fused.Instrument(c.p), profile) {
					formed[name] += n
				}
				rf, err := fused.Run(c.p, c.inputs...)
				if err != nil {
					t.Fatalf("%s fused run: %v", c.name, err)
				}
				ru, err := unfused.Run(c.p, c.inputs...)
				if err != nil {
					t.Fatalf("%s unfused run: %v", c.name, err)
				}
				if rf.Stats != ru.Stats {
					t.Fatalf("%s: stats diverge under fusion\nfused:   %+v\nunfused: %+v", c.name, rf.Stats, ru.Stats)
				}
				if rf.Ret != ru.Ret {
					t.Fatalf("%s: return value %d (fused) vs %d (unfused)", c.name, rf.Ret, ru.Ret)
				}
				if got, want := render(rf), render(ru); got != want {
					t.Fatalf("%s: outcome diverges under fusion\nfused:   %s\nunfused: %s", c.name, got, want)
				}
			}
		})
	}
	for name, n := range formed {
		if n == 0 {
			t.Errorf("superinstruction %s is never formed in the corpus", name)
		}
	}
	t.Logf("superinstructions formed: %v", formed)
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

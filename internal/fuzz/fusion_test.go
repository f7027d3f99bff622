package fuzz

import (
	"fmt"
	"strings"
	"testing"

	"cecsan/csrc"
	"cecsan/internal/engine"
	"cecsan/internal/interp"
	"cecsan/internal/sanitizers"
	"cecsan/internal/splitmix"
)

// TestFusedMatchesUnfused is the superinstruction equivalence property:
// across a seeded generated corpus and a spread of sanitizer models, an
// engine with check/access fusion enabled (the default) and one with
// -DisableFusion must be observationally identical — same violation, fault,
// error and return value, and the same complete interp.Stats (fusion
// advances the instruction counter for the fused tail, executes the same
// check, and charges the same allocator traffic, so even ChecksExecuted,
// DegradedAllocs and the temporal counters match exactly).
func TestFusedMatchesUnfused(t *testing.T) {
	tools := []sanitizers.Name{
		sanitizers.CECSan, sanitizers.CECSanHardened, sanitizers.ASan,
		sanitizers.HWASan, sanitizers.SoftBound,
	}
	const seed, corpus = 0xF05E, 80

	mk := func(tool sanitizers.Name, disable bool) *engine.Engine {
		eng, err := engine.New(tool, engine.Options{
			Seed: seed, RuntimeSeed: seed, DisableFusion: disable,
		})
		if err != nil {
			t.Fatalf("engine.New(%s): %v", tool, err)
		}
		return eng
	}

	for _, tool := range tools {
		t.Run(string(tool), func(t *testing.T) {
			fused, unfused := mk(tool, false), mk(tool, true)
			compiled := 0
			for i := 0; i < corpus; i++ {
				c := Generate(splitmix.Derive(seed, uint64(i)))
				p, err := csrc.Compile(c.Source)
				if err != nil {
					continue // generator emitted a shape this tool set can't compile; fine
				}
				compiled++
				rf, err := fused.Run(p, c.Inputs...)
				if err != nil {
					t.Fatalf("seed %d fused run: %v", i, err)
				}
				ru, err := unfused.Run(p, c.Inputs...)
				if err != nil {
					t.Fatalf("seed %d unfused run: %v", i, err)
				}
				if rf.Stats != ru.Stats {
					t.Fatalf("seed %d: stats diverge under fusion\nfused:   %+v\nunfused: %+v", i, rf.Stats, ru.Stats)
				}
				if rf.Ret != ru.Ret {
					t.Fatalf("seed %d: return value %d (fused) vs %d (unfused)", i, rf.Ret, ru.Ret)
				}
				if got, want := render(rf), render(ru); got != want {
					t.Fatalf("seed %d: outcome diverges under fusion\nfused:   %s\nunfused: %s", i, got, want)
				}
			}
			if compiled == 0 {
				t.Fatal("corpus compiled zero cases; the property was never exercised")
			}
		})
	}
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

package traffic

import (
	"testing"

	"cecsan/csrc"
	"cecsan/internal/core"
	"cecsan/internal/engine"
	"cecsan/internal/fuzz"
	"cecsan/internal/harness"
	"cecsan/internal/sanitizers"
	"cecsan/prog"
)

var outcomeNames = [...]string{
	harness.OutcomeClean:    "clean",
	harness.OutcomeDetected: "detected",
	harness.OutcomeCrash:    "crash",
	harness.OutcomeError:    "error",
}

// TestLadderRungsAgainstOracle runs fuzz cases on every rung of the
// CECSan-hardened degradation ladder, built by buildLadder itself so the
// engines are exactly the ones that serve degraded requests, and checks
// each verdict against the per-sanitizer expectation model of the rung
// that ran. The hardened rungs (full, no-quarantine, no-index-delay) keep
// the generation bump, so they must still catch the reuse-window shapes
// that plain CECSan, the default rung, misses by design.
func TestLadderRungsAgainstOracle(t *testing.T) {
	const cases = 2000
	expectAs := map[string]sanitizers.Name{
		"full":           sanitizers.CECSanHardened,
		"no-quarantine":  sanitizers.CECSanHardened,
		"no-index-delay": sanitizers.CECSanHardened,
		"default":        sanitizers.CECSan,
	}
	cache := engine.NewCache(0)
	mk := func(tool sanitizers.Name, o *core.Options) (*engine.Engine, error) {
		return engine.New(tool, engine.Options{CECSan: o, Workers: 1, Seed: 1, RuntimeSeed: 1, Cache: cache})
	}
	l, err := buildLadder(sanitizers.CECSanHardened, ResilienceConfig{}, mk)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.rungs) != len(expectAs) {
		t.Fatalf("ladder has %d rungs, want %d", len(l.rungs), len(expectAs))
	}
	type fuzzCase struct {
		c *fuzz.Case
		p *prog.Program
	}
	cs := make([]fuzzCase, cases)
	reuse := 0
	for i := range cs {
		c := fuzz.Generate(uint64(i + 1))
		p, err := csrc.Compile(c.Source)
		if err != nil {
			t.Fatalf("seed %d: %v", c.Seed, err)
		}
		cs[i] = fuzzCase{c, p}
		if o := &c.Oracle; fuzz.ExpectFor(sanitizers.CECSanHardened, o) != fuzz.ExpectFor(sanitizers.CECSan, o) {
			reuse++
		}
	}
	if reuse == 0 {
		t.Fatal("no case tells the hardened rungs from the default one")
	}
	for _, r := range l.rungs {
		tool, ok := expectAs[r.name]
		if !ok {
			t.Fatalf("unknown rung %q", r.name)
		}
		mismatches := 0
		for _, fc := range cs {
			c := fc.c
			res, err := r.eng.Run(fc.p, c.Inputs...)
			if err != nil {
				t.Fatalf("rung %s: seed %d: %v", r.name, c.Seed, err)
			}
			out := harness.Classify(res)
			want := fuzz.ExpectFor(tool, &c.Oracle)
			ok := out == harness.OutcomeDetected || out == harness.OutcomeClean
			switch want {
			case fuzz.ExpectDetect:
				ok = out == harness.OutcomeDetected
			case fuzz.ExpectMiss:
				ok = out == harness.OutcomeClean
			}
			if !ok {
				if mismatches++; mismatches <= 5 {
					t.Errorf("rung %s: seed %d (%s): outcome %s, %s expects %s", r.name, c.Seed, c.Oracle.Shape, outcomeNames[out], tool, want)
				}
			}
		}
		if mismatches > 0 {
			t.Errorf("rung %s: %d of %d verdicts disagree with the oracle", r.name, mismatches, cases)
		}
	}
	t.Logf("%d cases per rung, %d of them reuse-shaped", cases, reuse)
}

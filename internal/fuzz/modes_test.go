package fuzz

import (
	"testing"

	"cecsan/internal/engine"
	"cecsan/internal/interp"
	"cecsan/internal/sanitizers"
)

// TestVerdictsAcrossModes is the execution-mode property over
// modeCorpus: machines decoded with and without superinstructions, on
// pooled and on FreshRuntime engines, must give every program the same
// verdict, return value and complete interp.Stats (PeakRSS included). Each
// pooled engine runs the corpus twice, so its second pass runs on
// resources the first one reset. Every fuzz case's verdict must also be
// one classify accepts under ExpectFor: a bucket, not a finding.
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
		{"fused/pooled", engine.Options{}, 2},
		{"unfused/pooled", engine.Options{DisableFusion: true}, 2},
		{"fused/fresh", engine.Options{FreshRuntime: true}, 1},
		{"unfused/fresh", engine.Options{DisableFusion: true, FreshRuntime: true}, 1},
	}
	progs := modeCorpus(t)
	for _, tool := range tools {
		t.Run(string(tool), func(t *testing.T) {
			ref := make([]*interp.Result, len(progs))
			for _, mode := range modes {
				opts := mode.opts
				opts.Seed, opts.RuntimeSeed = corpusSeed, corpusSeed
				eng, err := engine.New(tool, opts)
				if err != nil {
					t.Fatalf("engine.New(%s): %v", tool, err)
				}
				for pass := 1; pass <= mode.passes; pass++ {
					for i, c := range progs {
						res, err := eng.Run(c.p, c.inputs...)
						if err != nil {
							t.Fatalf("%s %s pass %d: %v", c.name, mode.name, pass, err)
						}
						if ref[i] == nil {
							ref[i] = res
							if c.oracle != nil {
								if cl := classify(tool, c.oracle, res, false); cl.bucket == "" {
									t.Errorf("%s: verdict %s is a finding (%s %s) against the oracle", c.name, render(res), cl.reason, cl.detail)
								}
							}
							continue
						}
						want := ref[i]
						if res.Stats != want.Stats {
							t.Fatalf("%s: stats diverge under %s pass %d\ngot:  %+v\nwant: %+v", c.name, mode.name, pass, res.Stats, want.Stats)
						}
						if res.Ret != want.Ret {
							t.Fatalf("%s: return value %d under %s pass %d, want %d", c.name, res.Ret, mode.name, pass, want.Ret)
						}
						if got, w := render(res), render(want); got != w {
							t.Fatalf("%s: verdict diverges under %s pass %d\ngot:  %s\nwant: %s", c.name, mode.name, pass, got, w)
						}
					}
				}
			}
		})
	}
}

package fuzz

import (
	"testing"

	"cecsan/internal/engine"
	"cecsan/internal/sanitizers"
)

// TestFusedMatchesUnfused is the superinstruction equivalence property,
// one subtest per sanitizer model: over modeCorpus, an engine whose
// machines decode superinstructions (the default) and one with
// DisableFusion must be observationally identical — same violation, fault,
// error and return value, and the same complete interp.Stats. It is the
// fused/unfused slice of TestVerdictsAcrossModes, kept on its own so a
// fusion fault is named as one; that test also checks that every
// superinstruction is formed somewhere in the corpus.
func TestFusedMatchesUnfused(t *testing.T) {
	tools := []sanitizers.Name{
		sanitizers.Native, sanitizers.CECSan, sanitizers.CECSanHardened,
		sanitizers.ASan, sanitizers.HWASan, sanitizers.SoftBound,
	}
	progs := modeCorpus(t)
	for _, tool := range tools {
		t.Run(string(tool), func(t *testing.T) {
			fused := runCorpus(t, newModeEngine(t, tool, engine.Options{Workers: 1}), progs)
			unfused := runCorpus(t, newModeEngine(t, tool, engine.Options{Workers: 1, DisableFusion: true}), progs)
			for i, c := range progs {
				sameOutcome(t, c.name, "fusion", fused[i], unfused[i])
			}
		})
	}
}

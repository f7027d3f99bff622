package fuzz_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"cecsan/internal/fuzz"
	"cecsan/internal/instrument"
	"cecsan/internal/juliet"
	"cecsan/internal/rt"
	"cecsan/internal/sanitizers"
	"cecsan/internal/specsim"
	"cecsan/internal/traffic"
	"cecsan/prog"
)

// The identity tests pin the fingerprints of every program the campaigns
// build and of every Table II instrumented output. Fault plans, stream
// digests, cache keys and trace IDs all derive from these fingerprints, so
// a change to how programs are built, fingerprinted or instrumented that
// moves any program by a byte fails here first.

// digest hashes the programs' fingerprints in order.
func digest(progs []*prog.Program) string {
	h := sha256.New()
	for _, p := range progs {
		fp := p.Fingerprint()
		h.Write(fp[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSourceFingerprintsPinned covers every Table I program (bad, then
// good, per case), the execution-mode corpus, the SPEC CPU2006 analogues
// and the variants of the shipped interactive/batch serve spec.
func TestSourceFingerprintsPinned(t *testing.T) {
	suite, err := juliet.Suite()
	if err != nil {
		t.Fatal(err)
	}
	var progs []*prog.Program
	for _, cs := range suite {
		progs = append(progs, cs.Bad, cs.Good)
	}
	progs = append(progs, fuzz.ModeCorpusPrograms(t)...)
	for _, w := range specsim.Spec2006() {
		progs = append(progs, w.Build())
	}
	src, err := os.ReadFile("../../examples/workloads/interactive-batch.yaml")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := traffic.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := traffic.NewStream(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.Clients {
		for _, v := range stream.Variants(i) {
			progs = append(progs, v.Program)
		}
	}
	const want = "bdd9ea0108135c6cbb4c19de81bf6b164d250196619649ede842d1779fd981b7"
	if got := digest(progs); got != want {
		t.Errorf("fingerprint digest over %d programs = %s, want %s", len(progs), got, want)
	}
}

// TestTableIIOutputsPinned instruments every distinct (config, program)
// key of Table II — each tool over its published subset, as the harness
// and the engine's cache see them — and pins one digest per config over
// the outputs' fingerprints, in suite order. HWASan and ASan share a
// config, so the digest under HWASan covers both.
func TestTableIIOutputsPinned(t *testing.T) {
	suite, err := juliet.Suite()
	if err != nil {
		t.Fatal(err)
	}
	all := func(*juliet.Case) bool { return true }
	tools := []struct {
		name    sanitizers.Name
		include func(*juliet.Case) bool
	}{
		{sanitizers.CECSan, all},
		{sanitizers.PACMem, juliet.SubsetPACMem},
		{sanitizers.CryptSan, juliet.SubsetCryptSan},
		{sanitizers.HWASan, all},
		{sanitizers.ASan, all},
		{sanitizers.SoftBound, juliet.SubsetSoftBound},
	}
	want := map[sanitizers.Name]string{
		sanitizers.CECSan:    "d3e819f73b1e81e00cbe9cc2f9c6826590ee15271bc8eced7dde9803b1818de8",
		sanitizers.PACMem:    "3198f10eff1470d3111d546d3c9778c31e8c7b3043ab480cea46aab4bd8ae8a9",
		sanitizers.CryptSan:  "14eb87425651855152a0983789fddb74c547508d8049c28e8045dfbdd01c8267",
		sanitizers.HWASan:    "0c6e4478d010a07bef4976ee1a586fe25cf559eb1e4a4e33edb640b0bae38dd4",
		sanitizers.SoftBound: "606d4b14cde6b20cb49bdf91033c0d2a3d8aefb3f6f2432c9869faaae4ed0a4a",
	}
	type key struct {
		cfg rt.Profile
		fp  prog.Fingerprint
	}
	seen := make(map[key]bool)
	firstTool := make(map[rt.Profile]sanitizers.Name) // config -> first tool with it
	outputs := make(map[sanitizers.Name][]*prog.Program)
	for _, tool := range tools {
		prof, err := sanitizers.ProfileFor(tool.name)
		if err != nil {
			t.Fatal(err)
		}
		cfgKey := instrument.Config(prof)
		owner, ok := firstTool[cfgKey]
		if !ok {
			owner = tool.name
			firstTool[cfgKey] = owner
		}
		for _, cs := range suite {
			if !tool.include(cs) {
				continue
			}
			for _, p := range []*prog.Program{cs.Bad, cs.Good} {
				k := key{cfgKey, p.Fingerprint()}
				if seen[k] {
					continue
				}
				seen[k] = true
				outputs[owner] = append(outputs[owner], instrument.Apply(p, prof))
			}
		}
	}
	if len(seen) != 60274 {
		t.Errorf("Table II has %d distinct (config, program) keys, want 60274", len(seen))
	}
	if len(outputs) != len(want) {
		t.Errorf("%d distinct configs, want %d", len(outputs), len(want))
	}
	for tool, progs := range outputs {
		if got := digest(progs); got != want[tool] {
			t.Errorf("%s: digest over %d outputs = %s, want %s", tool, len(progs), got, want[tool])
		}
	}
}

// TestSpecOutputsPinned pins one digest over the SPEC CPU2006 and smoke
// analogues instrumented under every registered sanitizer: their loops
// are where the hoisting and grouping passes rewrite.
func TestSpecOutputsPinned(t *testing.T) {
	var progs []*prog.Program
	for _, tool := range sanitizers.All() {
		prof, err := sanitizers.ProfileFor(tool)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range append(specsim.Spec2006(), specsim.Smoke()...) {
			progs = append(progs, instrument.Apply(w.Build(), prof))
		}
	}
	const want = "5b87b8e90737dca2a06ef790f8ac4fd76e635d47990ee47d864452dbaa520429"
	if got := digest(progs); got != want {
		t.Errorf("digest over %d instrumented programs = %s, want %s", len(progs), got, want)
	}
}

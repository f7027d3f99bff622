package fuzz

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"cecsan/internal/checkpoint"
	"cecsan/internal/splitmix"
)

// TestCampaignCheckpointResume is the fuzz-side kill-resume proof: a
// checkpointed campaign's last mid-run snapshot (what would survive a
// kill -9 between chunks), resumed under a different worker count, must
// produce a report byte-identical to an uninterrupted run — findings,
// aggregates, fault cases and the case digest alike.
//
// The cuts derive from a seed. A run leaves its snapshot at its last chunk
// boundary before Count, so each seeded chunk size cuts somewhere else.
// Each resumed run checkpoints again at a seeded chunk size, and the later
// cut it leaves is resumed once more: a campaign killed twice.
func TestCampaignCheckpointResume(t *testing.T) {
	cfg := Config{Seed: 7, Count: 150, FaultSeed: 3, Workers: 2}
	if testing.Short() {
		cfg.Count = 60
	}
	ref := campaignJSON(t, cfg)

	dir := t.TempDir()
	rng := splitmix.New(27)
	every := []int{cfg.Count / 3}
	for range 4 {
		every = append(every, rng.RangeIn(1, cfg.Count-1))
	}
	for i, e := range every {
		ckCfg := cfg
		ckCfg.CheckpointPath = filepath.Join(dir, fmt.Sprintf("run%d.ckpt", i))
		ckCfg.CheckpointEvery = e
		if got := campaignJSON(t, ckCfg); !bytes.Equal(ref, got) {
			t.Fatalf("checkpointing every %d cases changed the report:\n%s\nvs\n%s", e, got, ref)
		}
		saved := loadCut(t, ckCfg.CheckpointPath, 0, cfg.Count)

		// Resume, checkpointing again; the last cut is resumed once more.
		for gen := 1; gen <= 2; gen++ {
			resCfg := cfg
			resCfg.Workers = rng.RangeIn(1, 8)
			resCfg.Resume = saved
			left := cfg.Count - saved.NextCase
			if gen == 1 && left > 1 {
				resCfg.CheckpointPath = filepath.Join(dir, fmt.Sprintf("run%d-resumed.ckpt", i))
				resCfg.CheckpointEvery = rng.RangeIn(1, left-1)
			}
			if got := campaignJSON(t, resCfg); !bytes.Equal(ref, got) {
				t.Fatalf("resumed at case %d of %d (chunks of %d, %d workers), the report diverged from the uninterrupted run:\n%s\nvs\n%s",
					saved.NextCase, cfg.Count, e, resCfg.Workers, got, ref)
			}
			if resCfg.CheckpointPath == "" {
				break
			}
			saved = loadCut(t, resCfg.CheckpointPath, saved.NextCase, cfg.Count)
		}
	}
}

// campaignJSON runs cfg's campaign and returns its report as JSON.
func campaignJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Campaign()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if rep.CaseDigest == "" {
		t.Fatal("campaign produced no case digest")
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// loadCut loads the snapshot at path and checks that its cursor lies
// strictly between after and count.
func loadCut(t *testing.T, path string, after, count int) *CampaignCheckpoint {
	t.Helper()
	var saved CampaignCheckpoint
	if err := checkpoint.Load(path, checkpoint.KindFuzz, &saved); err != nil {
		t.Fatalf("load checkpoint: %v", err)
	}
	if saved.NextCase <= after || saved.NextCase >= count {
		t.Fatalf("snapshot cursor %d not in (%d, %d)", saved.NextCase, after, count)
	}
	return &saved
}

// TestCampaignResumeValidation: a snapshot resumed under the wrong campaign
// identity must fail loudly before any case runs.
func TestCampaignResumeValidation(t *testing.T) {
	base := Config{Seed: 7, Count: 60, FaultSeed: 3, Workers: 2}
	ckpt := filepath.Join(t.TempDir(), "fuzz.ckpt")
	cfg := base
	cfg.CheckpointPath = ckpt
	cfg.CheckpointEvery = 20
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Campaign(); err != nil {
		t.Fatal(err)
	}
	var saved CampaignCheckpoint
	if err := checkpoint.Load(ckpt, checkpoint.KindFuzz, &saved); err != nil {
		t.Fatal(err)
	}

	mutate := []struct {
		name string
		mod  func(c *Config)
	}{
		{"wrong seed", func(c *Config) { c.Seed = 8 }},
		{"wrong fault seed", func(c *Config) { c.FaultSeed = 4 }},
		{"fault mode dropped", func(c *Config) { c.FaultSeed = 0 }},
		{"wrong count", func(c *Config) { c.Count = 61 }},
		{"hardened flipped", func(c *Config) { c.Hardened = true }},
	}
	for _, tc := range mutate {
		t.Run(tc.name, func(t *testing.T) {
			bad := base
			tc.mod(&bad)
			bad.Resume = &saved
			br, err := NewRunner(bad)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := br.Campaign(); err == nil {
				t.Fatal("resume must reject a mismatched checkpoint")
			}
		})
	}

	t.Run("cursor out of range", func(t *testing.T) {
		broken := saved
		broken.NextCase = base.Count + 1
		bad := base
		bad.Resume = &broken
		br, err := NewRunner(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := br.Campaign(); err == nil {
			t.Fatal("resume must reject an out-of-range cursor")
		}
	})
}

// TestCampaignCheckpointFindingRoundTrip: findings survive the snapshot
// with their minimization coordinates (unexported in Finding) intact.
func TestCampaignCheckpointFindingRoundTrip(t *testing.T) {
	r, err := NewRunner(Config{Seed: 7, Count: 10})
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{Seed: 7, Count: 10, Shapes: map[string]int{"uaf": 2}}
	for range r.tools {
		rep.Tools = append(rep.Tools, ToolReport{})
	}
	rep.Findings = append(rep.Findings, Finding{
		Tool: "cecsan", Seed: 99, Shape: "uaf", Reason: "missed-detection",
		Outcome: "clean", Source: "int main() {}", caseIdx: 5, toolIdx: 2,
	})
	chain := sha256.New()
	chain.Write([]byte("some absorbed prefix"))
	wantSum := sha256.New()
	wantSum.Write([]byte("some absorbed prefix"))

	ck, err := r.captureCampaign(rep, chain, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "f.ckpt")
	if err := checkpoint.Save(path, checkpoint.KindFuzz, ck); err != nil {
		t.Fatal(err)
	}
	var loaded CampaignCheckpoint
	if err := checkpoint.Load(path, checkpoint.KindFuzz, &loaded); err != nil {
		t.Fatal(err)
	}

	rep2 := &Report{Seed: 7, Count: 10, Shapes: map[string]int{}}
	for range r.tools {
		rep2.Tools = append(rep2.Tools, ToolReport{})
	}
	chain2 := sha256.New()
	if err := r.restoreCampaign(rep2, chain2, &loaded); err != nil {
		t.Fatal(err)
	}
	if len(rep2.Findings) != 1 {
		t.Fatalf("findings lost: %d", len(rep2.Findings))
	}
	f := rep2.Findings[0]
	if f.caseIdx != 5 || f.toolIdx != 2 || f.Seed != 99 || f.Reason != "missed-detection" {
		t.Fatalf("finding coordinates corrupted: %+v caseIdx=%d toolIdx=%d", f, f.caseIdx, f.toolIdx)
	}
	if rep2.Shapes["uaf"] != 2 {
		t.Fatalf("shapes lost: %v", rep2.Shapes)
	}
	if !bytes.Equal(chain2.Sum(nil), wantSum.Sum(nil)) {
		t.Fatal("digest chain state corrupted across the snapshot")
	}
}

package traffic

import (
	"fmt"
	"testing"

	"cecsan/internal/splitmix"
)

// randomSpecSrc builds a randomized but valid spec from a splitmix64
// stream: 1-3 classes over mixed arrival processes, program kinds and
// variant counts, with normalized rate fractions.
func randomSpecSrc(r *splitmix.Rand) string {
	processes := []string{"poisson", "gamma", "weibull"}
	kinds := []string{"spatial", "churn", "mixed"}
	n := 1 + r.Intn(3)
	fracs := make([]float64, n)
	total := 0.0
	for i := range fracs {
		fracs[i] = 1 + float64(r.Intn(9))
		total += fracs[i]
	}
	src := fmt.Sprintf("version: \"1\"\nseed: %d\naggregate_rate: %d\nclients:\n",
		1+r.Intn(1_000_000), 500+r.Intn(5000))
	for i := 0; i < n; i++ {
		src += fmt.Sprintf(`  - id: class%d
    rate_fraction: %.6f
    deadline_ms: %d
    arrival:
      process: %s
    program:
      kind: %s
      variants: %d
`, i, fracs[i]/total, 10*(1+r.Intn(20)), processes[r.Intn(len(processes))], kinds[r.Intn(len(kinds))], 1+r.Intn(4))
	}
	return src
}

// TestSeekEquivalence is the seek property test: for random specs and a
// random skip count n, Seek(n)-then-drain must equal
// generate-and-discard-n-then-drain — identical remaining requests and an
// identical final digest. The stream is the single-producer generator both
// the 1-worker and 4-worker serving paths consume, and its digest is
// already pinned worker-count-independent (TestServeDigestWorkerIndependence,
// TestServeCheckpointResume below cover workers ∈ {1, 4} end to end).
func TestSeekEquivalence(t *testing.T) {
	r := splitmix.New(0x5eeb)
	for trial := 0; trial < 8; trial++ {
		src := randomSpecSrc(r)
		spec, err := Parse(src)
		if err != nil {
			t.Fatalf("trial %d: generated spec invalid: %v\n%s", trial, err, src)
		}
		total := 50 + r.Intn(200)
		n := r.Intn(total)

		discard, err := NewStream(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		discard.SetLimit(total)
		seek, err := NewStream(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		seek.SetLimit(total)

		for i := 0; i < n; i++ {
			if discard.Next() == nil {
				t.Fatalf("trial %d: stream ended during discard at %d/%d", trial, i, n)
			}
		}
		if got := seek.Seek(n); got != n {
			t.Fatalf("trial %d: Seek(%d) skipped %d", trial, n, got)
		}
		if seek.Count() != discard.Count() {
			t.Fatalf("trial %d: counts diverged after seek: %d vs %d", trial, seek.Count(), discard.Count())
		}

		for i := n; ; i++ {
			a, b := discard.Next(), seek.Next()
			if (a == nil) != (b == nil) {
				t.Fatalf("trial %d: streams ended at different points near %d", trial, i)
			}
			if a == nil {
				break
			}
			if a.Index != b.Index || a.Class != b.Class || a.Arrival != b.Arrival ||
				a.Deadline != b.Deadline || a.Variant != b.Variant || a.ProgSeed != b.ProgSeed ||
				a.Program.Fingerprint() != b.Program.Fingerprint() {
				t.Fatalf("trial %d: request %d diverged:\n%+v\nvs\n%+v", trial, i, a, b)
			}
		}
		if discard.Digest() != seek.Digest() {
			t.Fatalf("trial %d (n=%d, total=%d): final digests diverged:\n%s\nvs\n%s",
				trial, n, total, discard.Digest(), seek.Digest())
		}
	}
}

// TestSeekStopsAtLimit: seeking past the stream bound skips only what the
// bound allows and reports it.
func TestSeekStopsAtLimit(t *testing.T) {
	spec := mustParse(t, twoClassSpec)
	s, err := NewStream(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetLimit(30)
	if got := s.Seek(100); got != 30 {
		t.Fatalf("Seek(100) past a 30-request bound skipped %d, want 30", got)
	}
	if s.Next() != nil {
		t.Fatal("stream must be exhausted after seeking to its bound")
	}
}

// TestStreamStateRoundTrip: capturing mid-stream and restoring into a
// fresh stream over the same (spec, seed) resumes byte-identically.
func TestStreamStateRoundTrip(t *testing.T) {
	spec := mustParse(t, twoClassSpec)
	orig, err := NewStream(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig.SetLimit(200)
	for i := 0; i < 77; i++ {
		orig.Next()
	}
	st, err := orig.State()
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := NewStream(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	resumed.SetLimit(200)
	if err := resumed.Restore(st); err != nil {
		t.Fatal(err)
	}
	for {
		a, b := orig.Next(), resumed.Next()
		if (a == nil) != (b == nil) {
			t.Fatal("restored stream ended at a different point")
		}
		if a == nil {
			break
		}
		if a.Index != b.Index || a.Arrival != b.Arrival || a.ProgSeed != b.ProgSeed {
			t.Fatalf("request %d diverged after restore", a.Index)
		}
	}
	if orig.Digest() != resumed.Digest() {
		t.Fatal("digests diverged after state round trip")
	}

	// Restoring a state from a different spec shape fails loudly.
	other, err := NewStream(mustParse(t, serveSpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Parse("version: \"1\"\nseed: 3\naggregate_rate: 100\nclients:\n  - id: only\n    rate_fraction: 1.0\n    program:\n      kind: spatial\n")
	if err != nil {
		t.Fatal(err)
	}
	oneClass, err := NewStream(single, 0)
	if err != nil {
		t.Fatal(err)
	}
	ost, err := oneClass.State()
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(ost); err == nil {
		t.Fatal("restoring a 1-client state into a 2-client stream must fail")
	}
}

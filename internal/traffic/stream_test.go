package traffic

import (
	"math"
	"testing"
	"time"
)

func mustParse(t *testing.T, src string) *Spec {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const twoClassSpec = `
version: "1"
seed: 11
aggregate_rate: 1000
clients:
  - id: fast
    rate_fraction: 0.6
    deadline_ms: 50
    program:
      kind: spatial
      variants: 3
  - id: bulk
    rate_fraction: 0.4
    arrival:
      process: gamma
      cv: 2.0
    program:
      kind: churn
      variants: 3
`

// TestStreamDeterminism checks the core contract: two independent streams
// over the same (spec, seed) produce identical requests and digests, and
// a different seed produces a different stream.
func TestStreamDeterminism(t *testing.T) {
	spec := mustParse(t, twoClassSpec)
	a, err := NewStream(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStream(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	for i := 0; i < 500; i++ {
		ra, rb := a.Next(), b.Next()
		if ra == nil || rb == nil {
			t.Fatalf("stream ended early at %d", i)
		}
		if ra.Class != rb.Class || ra.Arrival != rb.Arrival || ra.Variant != rb.Variant ||
			ra.ProgSeed != rb.ProgSeed || ra.Program.Fingerprint() != rb.Program.Fingerprint() {
			t.Fatalf("request %d diverged: %+v vs %+v", i, ra, rb)
		}
		if ra.Arrival < last {
			t.Fatalf("request %d arrives out of order: %v < %v", i, ra.Arrival, last)
		}
		last = ra.Arrival
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("digests diverged: %s vs %s", a.Digest(), b.Digest())
	}

	c, err := NewStream(spec, 999)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		c.Next()
	}
	if c.Digest() == a.Digest() {
		t.Fatal("different seed produced an identical stream")
	}
}

// TestStreamMix checks both classes appear in roughly their rate
// fractions, deadlines are stamped, and max_requests bounds the stream.
func TestStreamMix(t *testing.T) {
	spec := mustParse(t, twoClassSpec)
	s, err := NewStream(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	byClass := map[string]int{}
	for i := 0; i < n; i++ {
		r := s.Next()
		byClass[r.Class]++
		if r.Class == "fast" && r.Deadline != 50*time.Millisecond {
			t.Fatalf("fast deadline = %v", r.Deadline)
		}
	}
	frac := float64(byClass["fast"]) / n
	if frac < 0.5 || frac > 0.7 {
		t.Fatalf("fast fraction %.3f, want ~0.6", frac)
	}

	spec2 := mustParse(t, twoClassSpec)
	spec2.MaxRequests = 37
	b, err := NewStream(spec2, 0)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for b.Next() != nil {
		count++
	}
	if count != 37 {
		t.Fatalf("bounded stream yielded %d requests, want 37", count)
	}
}

// sampleStats draws n inter-arrivals and returns their mean and CV.
func sampleStats(t *testing.T, spec ArrivalSpec, rate float64, seed uint64, n int) (mean, cv float64) {
	t.Helper()
	s := newArrivalSampler(spec, rate, seed)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.next().Seconds()
		sum += v
		sumSq += v * v
	}
	mean = sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	return mean, math.Sqrt(variance) / mean
}

// TestArrivalStatistics checks each process hits its configured mean and
// that gamma CV>1 really is burstier than poisson.
func TestArrivalStatistics(t *testing.T) {
	const n = 50000
	const rate = 100.0
	want := 1 / rate

	pMean, pCV := sampleStats(t, ArrivalSpec{Process: ProcessPoisson}, rate, 5, n)
	if math.Abs(pMean-want)/want > 0.05 {
		t.Fatalf("poisson mean %.5f, want %.5f +-5%%", pMean, want)
	}
	if math.Abs(pCV-1) > 0.1 {
		t.Fatalf("poisson CV %.3f, want ~1", pCV)
	}

	gMean, gCV := sampleStats(t, ArrivalSpec{Process: ProcessGamma, CV: 2.0}, rate, 6, n)
	if math.Abs(gMean-want)/want > 0.05 {
		t.Fatalf("gamma mean %.5f, want %.5f +-5%%", gMean, want)
	}
	if math.Abs(gCV-2.0) > 0.25 {
		t.Fatalf("gamma CV %.3f, want ~2", gCV)
	}
	if gCV <= pCV {
		t.Fatalf("gamma CV %.3f not burstier than poisson CV %.3f", gCV, pCV)
	}

	wMean, wCV := sampleStats(t, ArrivalSpec{Process: ProcessWeibull, Shape: 1.5}, rate, 7, n)
	if math.Abs(wMean-want)/want > 0.05 {
		t.Fatalf("weibull mean %.5f, want %.5f +-5%%", wMean, want)
	}
	// Weibull with shape > 1 is more regular than exponential.
	if wCV >= 1 {
		t.Fatalf("weibull(1.5) CV %.3f, want < 1", wCV)
	}
}

// TestVariantDeterminism checks program generation is a pure function of
// (kind, seed) and kinds actually differ.
func TestVariantDeterminism(t *testing.T) {
	for _, kind := range []string{KindSpatial, KindChurn, KindMixed, KindFuzz} {
		a, err := buildVariant(kind, 12345)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		b, err := buildVariant(kind, 12345)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if a.Source != b.Source || a.Program.Fingerprint() != b.Program.Fingerprint() {
			t.Fatalf("%s: variant not deterministic", kind)
		}
		c, err := buildVariant(kind, 54321)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if a.Source == c.Source {
			t.Fatalf("%s: different seeds rendered identical source", kind)
		}
	}
}

// TestStreamDigestGolden pins the absolute stream digest of the shipped
// interactive-batch spec at seed 42 over 2,000 requests — the stream_digest
// `cmd/serve -seed 42 -max-requests 2000` reports — so any change to the
// canonical request record (its fields or their encoding) is caught, not
// just run-to-run drift.
func TestStreamDigestGolden(t *testing.T) {
	spec, err := Load("../../examples/workloads/interactive-batch.yaml")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	s.SetLimit(2000)
	n := 0
	for s.Next() != nil {
		n++
	}
	if n != 2000 {
		t.Fatalf("stream yielded %d requests, want 2000", n)
	}
	const want = "e0f9dd39444f91366244dd70289d4497f2f00947d26a0c7ebd784b219367f36b"
	if got := s.Digest(); got != want {
		t.Fatalf("stream digest = %s, want %s", got, want)
	}
}

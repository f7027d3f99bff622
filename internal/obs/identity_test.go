// Byte-identity tests: observability is strictly off the report path, so
// the differential fuzz report and the Table II rendering must be identical
// bytes whether an Observer — with every facility on — is attached or not.
// This is the determinism contract the obs package doc promises; these tests
// live in an external package because they drive fuzz and harness, which
// import obs-adjacent packages (obs itself imports only internal/splitmix, so
// no cycle either way).
package obs_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"cecsan/internal/fuzz"
	"cecsan/internal/harness"
	"cecsan/internal/juliet"
	"cecsan/internal/obs"
	"cecsan/internal/sanitizers"
)

// fullObserver returns an Observer with every facility enabled — registry,
// flight recorder, site profiler — the configuration with the most
// opportunities to perturb execution if it ever escaped the read-only
// contract.
func fullObserver() *obs.Observer {
	o := obs.New()
	o.Flight = obs.NewFlightRecorder(obs.FlightConfig{SampleN: 1})
	o.Sites = obs.NewSiteProfiler()
	return o
}

// campaignBytes runs a small differential campaign and returns the
// deterministic JSON record.
func campaignBytes(t *testing.T, o *obs.Observer) []byte {
	t.Helper()
	runner, err := fuzz.NewRunner(fuzz.Config{Seed: 11, Count: 25, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestFuzzReportByteIdentity(t *testing.T) {
	plain := campaignBytes(t, nil)
	observed := campaignBytes(t, fullObserver())
	if !bytes.Equal(plain, observed) {
		t.Fatalf("fuzz report changed with observability attached:\n--- without obs ---\n%s\n--- with obs ---\n%s",
			plain, observed)
	}
}

// TestFuzzTraceIDsWorkerIndependent: engine-owned trace IDs derive from
// (tool, program fingerprint), so a campaign with the flight recorder
// armed retains the same trace-ID set at any worker count — the batch-tool
// counterpart of serve's TestFlightWorkerIndependence.
func TestFuzzTraceIDsWorkerIndependent(t *testing.T) {
	ids := func(workers int) []string {
		o := obs.New()
		o.Flight = obs.NewFlightRecorder(obs.FlightConfig{SampleN: 1})
		runner, err := fuzz.NewRunner(fuzz.Config{Seed: 11, Count: 25, Workers: workers, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runner.Campaign(); err != nil {
			t.Fatal(err)
		}
		if sum := o.Flight.Summary(); sum.EvictedInteresting+sum.EvictedSampled != 0 {
			t.Fatalf("workers=%d: recorder evicted traces (%+v); the ID set would depend on order", workers, sum)
		}
		var out []string
		for _, r := range o.Flight.Records() {
			out = append(out, r.TraceID)
		}
		slices.Sort(out)
		return out
	}
	one, four := ids(1), ids(4)
	if len(one) == 0 {
		t.Fatal("campaign retained no traces")
	}
	if !slices.Equal(one, four) {
		t.Fatalf("trace-ID sets differ: %d IDs at workers=1, %d at workers=4", len(one), len(four))
	}
}

// table2String renders Table II on a small suite, with harness.Obs set to o.
func table2String(t *testing.T, suite []*juliet.Case, o *obs.Observer) string {
	t.Helper()
	harness.Obs = o
	defer func() { harness.Obs = nil }()
	tools := []sanitizers.Name{
		sanitizers.CECSan, sanitizers.PACMem, sanitizers.CryptSan,
		sanitizers.HWASan, sanitizers.ASan, sanitizers.SoftBound,
	}
	eval, err := harness.EvaluateJuliet(suite, tools, 0)
	if err != nil {
		t.Fatal(err)
	}
	return harness.FormatTable2(eval)
}

func TestTable2ByteIdentity(t *testing.T) {
	var suite []*juliet.Case
	for _, cwe := range juliet.AllCWEs() {
		cases, err := juliet.Generate(cwe, 2)
		if err != nil {
			t.Fatal(err)
		}
		suite = append(suite, cases...)
	}
	plain := table2String(t, suite, nil)
	observed := table2String(t, suite, fullObserver())
	if plain != observed {
		t.Fatalf("Table II changed with observability attached:\n--- without obs ---\n%s\n--- with obs ---\n%s",
			plain, observed)
	}
}

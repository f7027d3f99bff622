package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"cecsan/internal/juliet"
	"cecsan/internal/sanitizers"
	"cecsan/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite the pinned juliet verdicts and Table II counts from a fresh pass")

// julietPassVerdicts sets the juliet workload up for seed and returns one
// pass's verdict vector per tool, plus the pass's outcome.
func julietPassVerdicts(t *testing.T, seed uint64, golden map[sanitizers.Name][]byte) (*julietState, map[sanitizers.Name][]byte, *outcome) {
	t.Helper()
	st, err := setupJuliet(seed, golden, newTracer(false))
	if err != nil {
		t.Fatal(err)
	}
	o := &outcome{}
	got := map[sanitizers.Name][]byte{}
	var op int64
	if _, err := st.pass(o, &opTimes{}, got, newTracer(false), nil, &op); err != nil {
		t.Fatal(err)
	}
	return st, got, o
}

func TestUpdateGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite testdata")
	}
	placeholder := map[sanitizers.Name][]byte{}
	for _, tool := range julietTools {
		placeholder[tool] = []byte(strings.Repeat("?", 2*juliet.TotalCases))
	}
	st, got, _ := julietPassVerdicts(t, 1, placeholder)
	var b strings.Builder
	rows := map[sanitizers.Name]map[juliet.CWE]tableIIRow{}
	for _, jt := range st.tools {
		b.WriteString(string(jt.name) + "\t" + encodeVerdicts(got[jt.name]) + "\n")
		rows[jt.name] = tableIIFrom(jt.cases, got[jt.name])
	}
	if err := os.WriteFile("testdata/juliet_verdicts.txt", []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/juliet_table2.txt", []byte(formatTableII(rows)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPinnedJulietOutputs checks that the pinned verdict vector and the
// pinned Table II counts agree, and that the counts are the published
// shape: every tool evaluated on its subset, SoftBound/CETS with its 165
// false positives and every other tool with none.
func TestPinnedJulietOutputs(t *testing.T) {
	golden, err := julietGolden()
	if err != nil {
		t.Fatal(err)
	}
	table := julietTableII()
	suite, err := juliet.Suite()
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range julietTools {
		var cases []*juliet.Case
		include := julietSubset(tool)
		for _, cs := range suite {
			if include(cs) {
				cases = append(cases, cs)
			}
		}
		if len(golden[tool]) != 2*len(cases) {
			t.Fatalf("%s: %d pinned verdicts for %d cases", tool, len(golden[tool]), len(cases))
		}
		rows := tableIIFrom(cases, golden[tool])
		if !reflect.DeepEqual(rows, table[tool]) {
			t.Errorf("%s: verdicts give Table II %v, pinned %v", tool, rows, table[tool])
		}
		fps := 0
		for _, r := range rows {
			fps += r[3]
		}
		want := 0
		if tool == sanitizers.SoftBound {
			want = 165
		}
		if fps != want {
			t.Errorf("%s: %d false positives, want %d", tool, fps, want)
		}
	}
}

// tracedOutcome runs one short traced run of a workload and requires every
// output check to pass.
func tracedOutcome(t *testing.T, workload string, seed uint64, seconds float64) *outcome {
	t.Helper()
	o, err := workloads[workload](config{workload: workload, seed: seed, seconds: seconds, trace: true, out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 || len(o.problems) != 0 {
		t.Fatalf("%s seed %d: %d failed ops: %v", workload, seed, o.failed, o.problems)
	}
	return o
}

// exactMetrics keeps the per-layer metrics that are counts.
func exactMetrics(m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		if d.unit == "count" || d.unit == "cycles" {
			out[d.name] = m[d.name]
		}
	}
	delete(out, "trace.spans") // depends on how many rounds fit the time
	delete(out, "traffic.deadline_misses")
	return out
}

// TestDeterminism runs each workload twice with the same seed, the second
// time long enough for several rounds per half: the exact counts, the
// verdicts (every op checked against the pinned vector) and the serve
// stream digest must be identical. A juliet run with another seed only
// reorders cases, so its counts match too.
func TestDeterminism(t *testing.T) {
	for _, w := range []string{"juliet", "spec", "serve"} {
		t.Run(w, func(t *testing.T) {
			a, b := tracedOutcome(t, w, 7, 0.1), tracedOutcome(t, w, 7, 5)
			if ea, eb := exactMetrics(a.metrics), exactMetrics(b.metrics); !reflect.DeepEqual(ea, eb) {
				t.Errorf("exact counts differ between two runs:\n%v\n%v", ea, eb)
			}
			if a.meta["stream_digest"] != b.meta["stream_digest"] {
				t.Errorf("stream digests differ: %v, %v", a.meta["stream_digest"], b.meta["stream_digest"])
			}
			if w == "juliet" {
				c := tracedOutcome(t, w, 8, 0.1)
				if ea, ec := exactMetrics(a.metrics), exactMetrics(c.metrics); !reflect.DeepEqual(ea, ec) {
					t.Errorf("juliet counts depend on the seed:\n%v\n%v", ea, ec)
				}
			}
		})
	}
}

// TestSeedChangesInputs checks what the seed controls: serve's request
// stream and juliet's case order.
func TestSeedChangesInputs(t *testing.T) {
	spec, err := traffic.Parse(serveYAML)
	if err != nil {
		t.Fatal(err)
	}
	off := newTracer(false)
	r7, err := reference(spec, 7, 2048, off)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := reference(spec, 8, 2048, off)
	if err != nil {
		t.Fatal(err)
	}
	if r7.digest == r8.digest {
		t.Errorf("serve stream digest %s does not depend on the seed", r7.digest)
	}
	if reflect.DeepEqual(permutation(juliet.TotalCases, 7, 0), permutation(juliet.TotalCases, 8, 0)) {
		t.Error("juliet case order does not depend on the seed")
	}
}

// TestBenchmarkJSONMatchesMetrics checks that the repository's
// BENCHMARK.json declares exactly the metrics, with the units, that the
// benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		section string
		got     []struct{ Name, Unit string }
		want    []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d metrics declared, %d reported", c.section, len(c.got), len(c.want))
		}
		for i, d := range c.want {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("%s[%d]: declared %s (%s), reported %s (%s)", c.section, i, c.got[i].Name, c.got[i].Unit, d.name, d.unit)
			}
		}
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q does not exist", w.Name)
		}
	}
}

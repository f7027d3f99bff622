package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gate runs benchgate with args and returns its output and error.
func gate(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// readTree loads a JSON file as a generic tree.
func readTree(t *testing.T, path string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// writeTree writes a generic tree to a temp file and returns its path.
func writeTree(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fresh.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// entry returns the element of the array m[key] whose "name" or "class"
// is label.
func entry(t *testing.T, m map[string]any, key, label string) map[string]any {
	t.Helper()
	for _, e := range m[key].([]any) {
		e := e.(map[string]any)
		if e["name"] == label || e["class"] == label {
			return e
		}
	}
	t.Fatalf("%s[%s] not found", key, label)
	return nil
}

// overloadRecord is a well-formed sweep: capacity 1000 req/s, every point
// at or above half of it, no step-downs.
func overloadRecord() map[string]any {
	point := func(mult, goodput float64) map[string]any {
		return map[string]any{
			"multiple":        mult,
			"offered_per_sec": 1000 * mult,
			"result": map[string]any{
				"completed":       4000,
				"goodput_per_sec": goodput,
				"degradations":    0,
				"elapsed_sec":     0.1,
			},
		}
	}
	return map[string]any{
		"bench":            "overload",
		"capacity_per_sec": 1000.0,
		"points":           []any{point(1, 900), point(2, 700), point(4, 500)},
	}
}

// TestCorruptBaselineIsLoudAndTyped: a truncated record (the classic
// interrupted-write artifact) must surface as a corruptError — the marker
// main maps to exit 2 — whose one-line message names the damaged path, for
// every record kind, whether it is the baseline or the fresh record.
func TestCorruptBaselineIsLoudAndTyped(t *testing.T) {
	overload, err := json.MarshalIndent(overloadRecord(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name string
		load func() ([]byte, error)
	}{
		{"serve", func() ([]byte, error) { return os.ReadFile("../../BENCH_serve.json") }},
		{"bench", func() ([]byte, error) { return os.ReadFile("../../BENCH_table2.json") }},
		{"overload", func() ([]byte, error) { return overload, nil }},
	}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			whole, err := src.load()
			if err != nil {
				t.Fatalf("record unreadable: %v", err)
			}
			truncated := filepath.Join(t.TempDir(), "BENCH_"+src.name+".json")
			if err := os.WriteFile(truncated, whole[:len(whole)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			for _, args := range [][]string{
				{"-fresh", truncated},
				{"-baseline", truncated, "-fresh", "../../BENCH_serve.json"},
			} {
				_, err := gate(t, args...)
				if err == nil {
					t.Fatalf("%v: truncated record parsed without error", args)
				}
				var ce *corruptError
				if !errors.As(err, &ce) {
					t.Fatalf("%v: error not classified corrupt (exit 2): %v", args, err)
				}
				if !strings.Contains(err.Error(), truncated) {
					t.Fatalf("%v: error does not name the damaged file: %v", args, err)
				}
				if strings.Contains(err.Error(), "\n") {
					t.Fatalf("%v: corruption error must be one line: %q", args, err.Error())
				}
			}
		})
	}

	// A record of no known kind is damaged input too.
	unknown := writeTree(t, map[string]any{"bench": "nosuch"})
	var ce *corruptError
	if _, err := gate(t, "-fresh", unknown); !errors.As(err, &ce) {
		t.Fatalf("unknown kind must be classified corrupt, got %v", err)
	}

	// A missing file stays a plain os error, never a corruption verdict.
	_, err = gate(t, "-baseline", filepath.Join(t.TempDir(), "absent.json"), "-fresh", "../../BENCH_serve.json")
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file must stay an os.IsNotExist error, got %v", err)
	}
	if errors.As(err, &ce) {
		t.Fatal("missing file must not be classified corrupt")
	}
}

// TestExactGate: per record kind, changing only timing fields passes the
// gate, and flipping one exact field fails it (exit 1, not 2) with a line
// naming the field.
func TestExactGate(t *testing.T) {
	cases := []struct {
		kind     string
		baseline string
		timing   func(m map[string]any)
		flip     func(t *testing.T, m map[string]any)
		field    string
	}{
		{
			kind:     "table2",
			baseline: "../../BENCH_table2.json",
			timing: func(m map[string]any) {
				m["workers"], m["wall_seconds"], m["cases_per_sec"] = 7, 9.9, 1.0
				for _, e := range m["tools"].([]any) {
					e := e.(map[string]any)
					e["wall_seconds"], e["cases_per_sec"], e["instrument_seconds"], e["execute_seconds"] = 1.0, 2.0, 3.0, 4.0
				}
			},
			flip: func(t *testing.T, m map[string]any) {
				entry(t, m, "tools", "HWASan")["rates_pct"].(map[string]any)["CWE416"] = 80.0
			},
			field: "tools[HWASan].rates_pct.CWE416",
		},
		{
			kind:     "serve",
			baseline: "../../BENCH_serve.json",
			timing: func(m map[string]any) {
				m["workers"], m["elapsed_sec"], m["requests_per_sec"], m["goodput_per_sec"] = 7, 3.0, 1.0, 1.0
				m["deadline_misses"], m["good"], m["restarts"] = 5, 1995, 2
				m["slo"] = []any{map[string]any{"class": "batch", "good": 3, "budget_used": 0.5, "p99_us": 900}}
				for _, e := range m["classes"].([]any) {
					e := e.(map[string]any)
					e["p50_us"], e["p99_us"], e["mean_latency_us"], e["deadline_misses"] = 1, 2, 3.5, 4
				}
			},
			flip:  func(t *testing.T, m map[string]any) { m["breaker_trips"] = 1.0 },
			field: "breaker_trips",
		},
		{
			kind:     "chaos",
			baseline: "../../BENCH_chaos.json",
			timing: func(m map[string]any) {
				m["workers"], m["elapsed_sec"], m["requests_per_sec"] = 2, 0.5, 1.0
				// A chaos campaign burns its SLO budget on purpose.
				m["slo"] = []any{map[string]any{"class": "batch", "exhausted": true}}
			},
			flip:  func(t *testing.T, m map[string]any) { m["chaos_digest"] = strings.Repeat("0", 64) },
			field: "chaos_digest",
		},
		{
			kind:     "temporal",
			baseline: "../../BENCH_temporal.json",
			timing: func(m map[string]any) {
				m["reps"] = 3
				for _, mode := range m["modes"].([]any) {
					mode := mode.(map[string]any)
					mode["avg_wall_pct"] = 12.5
					for _, w := range mode["workloads"].([]any) {
						w := w.(map[string]any)
						w["wall_seconds"], w["wall_pct"] = 0.001, 4.0
					}
				}
			},
			flip: func(t *testing.T, m map[string]any) {
				entry(t, entry(t, m, "modes", "hardened"), "workloads", "smoke.gcc")["peak_rss"] = 1.0
			},
			field: "modes[hardened].workloads[smoke.gcc].peak_rss",
		},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			timed := readTree(t, tc.baseline)
			tc.timing(timed)
			if out, err := gate(t, "-baseline", tc.baseline, "-fresh", writeTree(t, timed)); err != nil {
				t.Fatalf("timing-only change failed the gate: %v\n%s", err, out)
			}

			flipped := readTree(t, tc.baseline)
			tc.flip(t, flipped)
			out, err := gate(t, "-baseline", tc.baseline, "-fresh", writeTree(t, flipped))
			var ce *corruptError
			if err == nil || errors.As(err, &ce) {
				t.Fatalf("exact-field flip: want a drift failure (exit 1), got %v", err)
			}
			if !strings.Contains(out, "DRIFT: "+tc.field+":") {
				t.Fatalf("drift output does not name %s:\n%s", tc.field, out)
			}
		})
	}
}

// TestServeFreshInvariants: a non-chaos serve record with an exhausted SLO
// or a class that completed nothing fails even when its exact fields match.
func TestServeFreshInvariants(t *testing.T) {
	for name, mutate := range map[string]func(m map[string]any){
		"slo[interactive].exhausted": func(m map[string]any) {
			m["slo"] = []any{map[string]any{"class": "interactive", "exhausted": true}}
		},
		"classes[batch].completed": func(m map[string]any) {
			entry(t, m, "classes", "batch")["completed"] = 0
		},
	} {
		m := readTree(t, "../../BENCH_serve.json")
		mutate(m)
		out, err := gate(t, "-fresh", writeTree(t, m), "-write", filepath.Join(t.TempDir(), "b.json"))
		if err == nil || !strings.Contains(out, "DRIFT: "+name+":") {
			t.Fatalf("%s: want a failure naming the field, got %v\n%s", name, err, out)
		}
	}
}

// TestOverloadGate: the overload sweep has no exact fields; it passes on
// its fresh-only invariants and fails on a point below half the calibrated
// capacity or a point that stepped down the degradation ladder.
func TestOverloadGate(t *testing.T) {
	if out, err := gate(t, "-fresh", writeTree(t, overloadRecord())); err != nil {
		t.Fatalf("well-formed sweep failed: %v\n%s", err, out)
	}
	for field, mutate := range map[string]func(p map[string]any){
		"points[4x].goodput_per_sec": func(p map[string]any) { p["goodput_per_sec"] = 499.0 },
		"points[4x].degradations":    func(p map[string]any) { p["degradations"] = 1 },
		"points[4x].completed":       func(p map[string]any) { p["completed"] = 0 },
	} {
		rec := overloadRecord()
		mutate(rec["points"].([]any)[2].(map[string]any)["result"].(map[string]any))
		out, err := gate(t, "-fresh", writeTree(t, rec))
		if err == nil || !strings.Contains(out, "DRIFT: "+field+":") {
			t.Fatalf("%s: want a failure naming the field, got %v\n%s", field, err, out)
		}
	}
	if _, err := gate(t, "-baseline", "../../BENCH_serve.json", "-fresh", writeTree(t, overloadRecord())); err == nil {
		t.Fatal("an overload record gated against a baseline must be refused")
	}
}

// TestWriteReproducesCommittedBaselines: every committed BENCH_*.json is a
// fixed point of -write, so each is exactly the projection of a fresh
// record and carries nothing else.
func TestWriteReproducesCommittedBaselines(t *testing.T) {
	committed, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(committed) == 0 {
		t.Fatalf("no committed baselines found: %v", err)
	}
	for _, path := range committed {
		t.Run(filepath.Base(path), func(t *testing.T) {
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(t.TempDir(), "b.json")
			if msg, err := gate(t, "-fresh", path, "-write", out); err != nil {
				t.Fatalf("-write failed: %v\n%s", err, msg)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("-write of %s is not byte-identical:\n%s", path, got)
			}
		})
	}
}

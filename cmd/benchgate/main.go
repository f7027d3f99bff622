// Command benchgate is the exact gate for the committed benchmark records.
// Every committed BENCH_*.json is the exact projection of one record kind:
// only the fields that are a pure function of the inputs (case counts,
// detection rates, cache counters, digests, resilience counters, peak RSS),
// never wall time, rates per second, latencies or worker counts.
//
// Usage:
//
//	benchgate -baseline BENCH_table2.json -fresh artifacts/table2.json
//	benchgate -fresh artifacts/table2.json -write BENCH_table2.json
//
// The record kind is read from the record's "bench" field:
//
//	table2    julietbench -json (Table II)
//	serve     cmd/serve -json (also the chaos campaign)
//	temporal  temporalbench -json
//
// With -baseline the projection of the fresh record must equal the
// projection of the baseline; each differing field is printed on its own
// line. With -write the fresh record's projection replaces the baseline
// file; one of the two is required. Both also run the fresh-only
// invariants of the kind: a serve record must complete requests in every
// class, evict no interesting flight traces and, unless it is a chaos
// campaign, keep every SLO.
//
// Exit status:
//
//	0  every check passed
//	1  drift against the baseline, or a fresh-only invariant failed
//	2  a record is corrupt (unparseable JSON or an unknown kind) — the
//	   input is damaged, not the build; regenerate the record or restore
//	   the committed baseline
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strconv"

	"cecsan/internal/cliutil"
)

// corruptError marks a record file that exists but cannot be parsed — a
// truncated write, a merge accident, a hand edit gone wrong. It gets its
// own exit code so CI distinguishes "the input is damaged" from "the
// build regressed".
type corruptError struct {
	path string
	err  error
}

func (e *corruptError) Error() string {
	return fmt.Sprintf("corrupt record %s: %v (regenerate it or restore the committed file)", e.path, e.err)
}

func (e *corruptError) Unwrap() error { return e.err }

// table2Exact is the exact projection of a julietbench Table II record.
type table2Exact struct {
	Bench string  `json:"bench"`
	Scale float64 `json:"scale"`
	Cases int     `json:"cases"`
	Tools []struct {
		Name           string             `json:"name"`
		Cases          int                `json:"cases"`
		Runs           int64              `json:"runs"`
		FalsePositives int                `json:"false_positives"`
		RatesPct       map[string]float64 `json:"rates_pct"`
		CacheHits      int64              `json:"cache_hits"`
		CacheMisses    int64              `json:"cache_misses"`
		CachePrefills  int64              `json:"cache_prefills"`
		CacheOverflows int64              `json:"cache_overflows"`
	} `json:"tools"`
}

// serveCounts are the request and outcome counters of a serve campaign,
// overall and per class. Closed-loop runs make them independent of timing
// and worker count; shed, good, deadline-miss and abandon counts are not.
type serveCounts struct {
	Generated       int64 `json:"generated"`
	Admitted        int64 `json:"admitted"`
	Completed       int64 `json:"completed"`
	Faults          int64 `json:"faults"`
	Detected        int64 `json:"detected"`
	Retries         int64 `json:"retries"`
	BreakerTrips    int64 `json:"breaker_trips"`
	BreakerRejected int64 `json:"breaker_rejected"`
	Degradations    int64 `json:"degradations"`
	Recoveries      int64 `json:"recoveries"`
	ChaosInjected   int64 `json:"chaos_injected"`
}

// serveExact is the exact projection of a cmd/serve campaign record.
type serveExact struct {
	Bench     string `json:"bench"`
	Spec      string `json:"spec"`
	Seed      uint64 `json:"seed"`
	ChaosSeed uint64 `json:"chaos_seed,omitempty"`
	serveCounts
	CacheHitRate float64 `json:"cache_hit_rate"`
	StreamDigest string  `json:"stream_digest"`
	ChaosDigest  string  `json:"chaos_digest,omitempty"`
	Classes      []struct {
		Class string `json:"class"`
		Tool  string `json:"tool"`
		serveCounts
	} `json:"classes"`
}

// temporalExact is the exact projection of a temporalbench record.
type temporalExact struct {
	Bench string `json:"bench"`
	Churn int    `json:"churn"`
	Modes []struct {
		Name            string  `json:"name"`
		GenerationBits  uint    `json:"generation_bits"`
		IndexDelay      int     `json:"index_delay"`
		QuarantineBytes int64   `json:"quarantine_bytes"`
		AvgRSSPct       float64 `json:"avg_rss_pct"`
		Workloads       []struct {
			Name         string  `json:"name"`
			PeakRSS      int64   `json:"peak_rss"`
			PeakOverhead int64   `json:"peak_overhead"`
			RSSPct       float64 `json:"rss_pct"`
			GenWraps     int64   `json:"gen_wraps,omitempty"`
			IndexSpills  int64   `json:"index_spills,omitempty"`
			QuarEvicts   int64   `json:"quarantine_evictions,omitempty"`
			QuarFlushes  int64   `json:"quarantine_flushes,omitempty"`
		} `json:"workloads"`
	} `json:"modes"`
}

// serveFresh mirrors what the fresh-only serve invariants read.
type serveFresh struct {
	ChaosSeed uint64 `json:"chaos_seed"`
	Classes   []struct {
		Class     string `json:"class"`
		Completed int64  `json:"completed"`
	} `json:"classes"`
	Flight *struct {
		EvictedInteresting int64 `json:"evicted_interesting"`
	} `json:"flight"`
	SLO []struct {
		Class       string `json:"class"`
		Exhausted   bool   `json:"exhausted"`
		P99Violated bool   `json:"p99_violated"`
	} `json:"slo"`
}

// kind is one record kind: its exact projection and its fresh-only
// invariants (nil when it has none).
type kind struct {
	exact func() any
	check func(data []byte) ([]string, error)
}

var kinds = map[string]kind{
	"table2":   {exact: func() any { return new(table2Exact) }},
	"serve":    {exact: func() any { return new(serveExact) }, check: checkServe},
	"temporal": {exact: func() any { return new(temporalExact) }},
}

// record is one parsed record file.
type record struct {
	path string
	data []byte
	kind string
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		var ce *corruptError
		if errors.As(err, &ce) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "", "committed baseline record to gate against")
	freshPath := fs.String("fresh", "", "freshly generated record to gate (required)")
	writePath := fs.String("write", "", "write the fresh record's exact projection to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *freshPath == "" {
		return fmt.Errorf("-fresh is required")
	}
	if *baselinePath != "" && *writePath != "" {
		return fmt.Errorf("-baseline and -write are exclusive")
	}
	if *baselinePath == "" && *writePath == "" {
		return fmt.Errorf("-fresh needs -baseline or -write")
	}
	fresh, err := load(*freshPath)
	if err != nil {
		return err
	}
	k := kinds[fresh.kind]

	var failures []string
	if k.check != nil {
		if failures, err = k.check(fresh.data); err != nil {
			return &corruptError{path: fresh.path, err: err}
		}
	}
	if *baselinePath != "" {
		base, err := load(*baselinePath)
		if err != nil {
			return err
		}
		if base.kind != fresh.kind {
			return fmt.Errorf("baseline %s is a %s record, fresh %s is a %s record", base.path, base.kind, fresh.path, fresh.kind)
		}
		var trees [2]any
		for i, r := range []*record{base, fresh} {
			v, err := project(r, k)
			if err != nil {
				return err
			}
			if trees[i], err = tree(v); err != nil {
				return err
			}
		}
		diff("", trees[0], trees[1], &failures)
	} else if len(failures) == 0 {
		proj, err := project(fresh, k)
		if err != nil {
			return err
		}
		if err := cliutil.WriteJSON(*writePath, proj); err != nil {
			return err
		}
	}

	for _, f := range failures {
		fmt.Fprintln(out, "DRIFT:", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d check(s) failed on %s", len(failures), fresh.path)
	}
	fmt.Fprintf(out, "benchgate: %s record %s ok\n", fresh.kind, fresh.path)
	return nil
}

// load reads a record and dispatches it on its "bench" field.
func load(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var head struct {
		Bench string `json:"bench"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, &corruptError{path: path, err: err}
	}
	if _, ok := kinds[head.Bench]; !ok {
		return nil, &corruptError{path: path, err: fmt.Errorf("unknown record kind %q", head.Bench)}
	}
	return &record{path: path, data: data, kind: head.Bench}, nil
}

// project decodes a record through its kind's exact mirror.
func project(r *record, k kind) (any, error) {
	v := k.exact()
	if err := json.Unmarshal(r.data, v); err != nil {
		return nil, &corruptError{path: r.path, err: err}
	}
	return v, nil
}

// tree re-reads a projection as a generic JSON tree for diff, keeping
// numbers as their exact text.
func tree(v any) (any, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	return tree, nil
}

// diff appends one line per leaf that differs between the baseline tree b
// and the fresh tree f. Array elements carrying a "name" or "class" are
// matched by it, so a reordered or missing entry is named, not shifted.
func diff(path string, b, f any, out *[]string) {
	switch bv := b.(type) {
	case map[string]any:
		fv, ok := f.(map[string]any)
		if !ok {
			break
		}
		keys := make([]string, 0, len(bv)+len(fv))
		for k := range bv {
			keys = append(keys, k)
		}
		for k := range fv {
			if _, ok := bv[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			diff(join(path, k), bv[k], fv[k], out)
		}
		return
	case []any:
		fv, ok := f.([]any)
		if !ok {
			break
		}
		fresh := make(map[string]any, len(fv))
		for i, e := range fv {
			fresh[label(e, i)] = e
		}
		for i, e := range bv {
			l := label(e, i)
			fe, ok := fresh[l]
			if !ok {
				*out = append(*out, fmt.Sprintf("%s[%s]: in baseline, missing from fresh", path, l))
				continue
			}
			delete(fresh, l)
			diff(fmt.Sprintf("%s[%s]", path, l), e, fe, out)
		}
		for i, e := range fv {
			l := label(e, i)
			if _, ok := fresh[l]; ok {
				*out = append(*out, fmt.Sprintf("%s[%s]: in fresh, missing from baseline", path, l))
			}
		}
		return
	}
	if !reflect.DeepEqual(b, f) {
		*out = append(*out, fmt.Sprintf("%s: baseline %s, fresh %s", path, show(b), show(f)))
	}
}

func join(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// label names an array element by its "name" or "class" field, falling
// back to its index.
func label(e any, i int) string {
	if m, ok := e.(map[string]any); ok {
		for _, key := range []string{"name", "class"} {
			if s, ok := m[key].(string); ok {
				return s
			}
		}
	}
	return strconv.Itoa(i)
}

func show(v any) string {
	if v == nil {
		return "absent"
	}
	data, _ := json.Marshal(v)
	return string(data)
}

// checkServe applies the fresh-only serve invariants. A chaos campaign
// injects faults and trips breakers on purpose, so burning its SLO budget
// is the expected outcome, not a failure: the SLO checks skip it.
func checkServe(data []byte) ([]string, error) {
	var r serveFresh
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	var failures []string
	if len(r.Classes) == 0 {
		failures = append(failures, "no classes")
	}
	for _, c := range r.Classes {
		if c.Completed == 0 {
			failures = append(failures, fmt.Sprintf("classes[%s].completed: 0 requests", c.Class))
		}
	}
	if r.Flight != nil && r.Flight.EvictedInteresting > 0 {
		failures = append(failures, fmt.Sprintf("flight.evicted_interesting: %d traces lost (flight budget too small)", r.Flight.EvictedInteresting))
	}
	for _, st := range r.SLO {
		if r.ChaosSeed != 0 {
			break
		}
		if st.Exhausted {
			failures = append(failures, fmt.Sprintf("slo[%s].exhausted: error budget exhausted", st.Class))
		}
		if st.P99Violated {
			failures = append(failures, fmt.Sprintf("slo[%s].p99_violated: p99 objective violated", st.Class))
		}
	}
	return failures, nil
}

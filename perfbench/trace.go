package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// The traced run records one span around every call the benchmark makes
// into a layer's public functions. Span names are "<layer>:<call>"; the
// layers are the roles the repository's modules play on a workload's path:
//
//	input       juliet.Generate, specsim Workload.Build, traffic.Parse/NewStream/Next
//	instrument  instrument.Apply (+Fuse), timed directly
//	engine      engine.New, Preinstrument, NewMachine, Machine.Release
//	interp      Machine.Run (interp dispatch plus the sanitizer runtime, core included)
//	dispatch    the layer that dispatches ops: harness.RunCaseOn, or traffic.Serve
var layers = []string{"input", "instrument", "engine", "interp", "dispatch"}

// noSpan is the parent of a root span, and what begin returns when tracing
// is off.
const noSpan int32 = -1

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	start, end int64
	op         int64 // op ID; -1 for set-up spans
	parent     int32
	name       uint16
}

// tracer keeps spans in memory; they are written out when the run ends.
// While off, begin and end cost one branch.
type tracer struct {
	on    bool
	epoch time.Time
	names []string
	ids   map[string]uint16
	spans []span
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now(), ids: map[string]uint16{}}
}

func (t *tracer) nameID(name string) uint16 {
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	return id
}

// now returns the tracer clock.
func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// begin opens a span and returns its handle (noSpan when tracing is off).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if !t.on {
		return noSpan
	}
	t.spans = append(t.spans, span{start: t.now(), end: -1, op: op, parent: parent, name: t.nameID(name)})
	return int32(len(t.spans) - 1)
}

// end closes the span opened by begin.
func (t *tracer) end(h int32) {
	if h >= 0 {
		t.spans[h].end = t.now()
	}
}

// add records a span timed elsewhere, in tracer-clock nanoseconds.
func (t *tracer) add(name string, start, end int64, parent int32, op int64) {
	if t.on {
		t.spans = append(t.spans, span{start: start, end: end, op: op, parent: parent, name: t.nameID(name)})
	}
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	MeanUS float64 `json:"mean_us"`
}

// traceSummary is the per-layer view of a traced run.
type traceSummary struct {
	LayerSelfS map[string]float64 `json:"layer_self_s"`
	// UnattributedPct is the share of the traced phase's wall time that no
	// root span covers: the benchmark's own loop and its clock reads.
	UnattributedPct float64     `json:"unattributed_pct"`
	PhaseS          float64     `json:"phase_s"`
	Spans           int         `json:"spans"`
	ByName          []spanStats `json:"by_name"`
}

// summarize computes every span's self time (its duration minus the part
// its children cover) and folds it per layer and per name. phaseStart and
// phaseEnd bound the traced measured phase for the unattributed share.
func (t *tracer) summarize(phaseStart, phaseEnd int64) traceSummary {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	byName := make([]spanStats, len(t.names))
	sum := traceSummary{LayerSelfS: map[string]float64{}, Spans: len(t.spans)}
	for _, l := range layers {
		sum.LayerSelfS[l] = 0
	}
	var covered int64
	for i, s := range t.spans {
		dur := s.end - s.start
		self := dur - child[i]
		if self < 0 {
			self = 0
		}
		name := t.names[s.name]
		layer, _, _ := strings.Cut(name, ":")
		sum.LayerSelfS[layer] += float64(self) / 1e9
		st := &byName[s.name]
		st.Name = name
		st.Count++
		st.TotalS += float64(dur) / 1e9
		st.SelfS += float64(self) / 1e9
		if s.parent < 0 && s.start >= phaseStart && s.end <= phaseEnd {
			covered += dur
		}
	}
	for i := range byName {
		if byName[i].Count > 0 {
			byName[i].MeanUS = byName[i].TotalS * 1e6 / float64(byName[i].Count)
		}
	}
	sort.Slice(byName, func(i, j int) bool { return byName[i].Name < byName[j].Name })
	sum.ByName = byName
	sum.PhaseS = float64(phaseEnd-phaseStart) / 1e9
	if phaseEnd > phaseStart {
		sum.UnattributedPct = 100 * (1 - float64(covered)/float64(phaseEnd-phaseStart))
	}
	return sum
}

// report fills the self-time and trace-quality per-layer metrics.
func (s traceSummary) report(m map[string]float64, overheadPct float64) {
	for _, l := range layers {
		m["self."+l+"_ms"] = s.LayerSelfS[l] * 1000
	}
	m["trace.unattributed_pct"] = s.UnattributedPct
	m["trace.overhead_pct"] = overheadPct
	m["trace.spans"] = float64(s.Spans)
}

// maxSpansWritten caps the span file; the summary always covers every span.
const maxSpansWritten = 200_000

// write stores the spans (tab-separated, capped at maxSpansWritten) and the
// summary plus extra per-tool/per-program detail as JSON under dir.
func (t *tracer) write(dir, base string, sum traceSummary, detail map[string]any) error {
	dir = filepath.Join(dir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, base+".spans.tsv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		if i == maxSpansWritten {
			break
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.op, t.names[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	doc := map[string]any{"summary": sum, "detail": detail, "spans_written": min(len(t.spans), maxSpansWritten)}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+".summary.json"), data, 0o644)
}

// named returns the aggregate of the spans with the given name.
func (s traceSummary) named(name string) spanStats {
	for _, b := range s.ByName {
		if b.Name == name {
			return b
		}
	}
	return spanStats{Name: name}
}

package main

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cecsan/internal/engine"
	"cecsan/internal/harness"
	"cecsan/internal/juliet"
	"cecsan/internal/sanitizers"
	"cecsan/prog"
)

// The juliet workload runs the full Table I suite under every Table II
// tool on its published subset, in harness order, through one shared
// instrumentation cache — what julietbench does, with one worker. An op is
// one harness.RunCaseOn (the bad or the good version of one case). The
// seed shuffles the case order within each tool; the verdicts and the
// Table II counts do not depend on it.

// julietTools is the Table II column order harness.EvaluateJuliet uses.
var julietTools = []sanitizers.Name{
	sanitizers.CECSan, sanitizers.PACMem, sanitizers.CryptSan,
	sanitizers.HWASan, sanitizers.ASan, sanitizers.SoftBound,
}

// julietSubset mirrors the harness's per-tool evaluation subsets (§IV.B).
func julietSubset(tool sanitizers.Name) func(*juliet.Case) bool {
	switch tool {
	case sanitizers.PACMem:
		return juliet.SubsetPACMem
	case sanitizers.CryptSan:
		return juliet.SubsetCryptSan
	case sanitizers.SoftBound:
		return juliet.SubsetSoftBound
	default:
		return func(*juliet.Case) bool { return true }
	}
}

const (
	// julietSetups is how many times a run sets the workload up; setup_s
	// is the median.
	julietSetups = 5
	// julietWarmCases is the untimed warm-up per tool, in cases.
	julietWarmCases = 256
	// julietApplyCases is how many cases per tool the traced run
	// instruments directly to time instrument.Apply.
	julietApplyCases = 200
)

// julietTool is one Table II column, ready to run.
type julietTool struct {
	name  sanitizers.Name
	eng   *engine.Engine
	cases []*juliet.Case // canonical (generation) order
	order []int          // the seed's permutation of cases
	want  []byte         // golden verdicts: bad, good per case, canonical order
}

type julietState struct {
	suite    []*juliet.Case
	tools    []*julietTool
	prefills int64
}

// setupJuliet generates the suite, builds one engine per tool on a shared
// cache, pre-instruments every bad and good program in harness order, and
// runs the untimed warm-up.
func setupJuliet(seed uint64, golden map[sanitizers.Name][]byte, t *tracer) (*julietState, error) {
	st := &julietState{}
	counts := juliet.TableI()
	for _, cwe := range juliet.AllCWEs() {
		s := t.begin("input:juliet.Generate", noSpan, -1)
		cases, err := juliet.Generate(cwe, counts[cwe])
		t.end(s)
		if err != nil {
			return nil, err
		}
		st.suite = append(st.suite, cases...)
	}
	cache := engine.NewCache(0)
	for ti, name := range julietTools {
		jt := &julietTool{name: name}
		include := julietSubset(name)
		for _, cs := range st.suite {
			if include(cs) {
				jt.cases = append(jt.cases, cs)
			}
		}
		s := t.begin("engine:engine.New", noSpan, -1)
		eng, err := engine.New(name, engine.Options{Workers: 1, Cache: cache})
		t.end(s)
		if err != nil {
			return nil, err
		}
		jt.eng = eng
		progs := make([]*prog.Program, 0, 2*len(jt.cases))
		for _, cs := range jt.cases {
			progs = append(progs, cs.Bad, cs.Good)
		}
		s = t.begin("engine:Preinstrument", noSpan, -1)
		eng.Preinstrument(progs)
		t.end(s)
		st.prefills += eng.Stats().CachePrefills
		jt.order = permutation(len(jt.cases), seed, uint64(ti))
		jt.want = golden[name]
		st.tools = append(st.tools, jt)
	}
	for _, jt := range st.tools {
		for _, k := range jt.order[:min(julietWarmCases, len(jt.order))] {
			cs := jt.cases[k]
			if _, err := harness.RunCaseOn(jt.eng, cs.Bad, cs.BadInputs); err != nil {
				return nil, err
			}
			if _, err := harness.RunCaseOn(jt.eng, cs.Good, cs.GoodInputs); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// permutation returns a seeded Fisher-Yates shuffle of 0..n-1.
func permutation(n int, seed, salt uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	x := seed*0x9e3779b97f4a7c15 ^ salt
	for i := n - 1; i > 0; i-- {
		x = splitmix64(x)
		j := int(x % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// splitmix64 advances and mixes a SplitMix64 state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// verdict letters of the golden vector.
var verdictLetter = map[harness.Outcome]byte{
	harness.OutcomeClean:    'c',
	harness.OutcomeDetected: 'd',
	harness.OutcomeCrash:    'x',
	harness.OutcomeError:    'e',
}

// julietPass runs one pass over every tool and returns each tool's pass
// time. Each op is timed into times (when non-nil) and checked against the
// golden verdict; got, when non-nil, receives each tool's verdicts in
// canonical order.
func (st *julietState) pass(o *outcome, times *opTimes, got map[sanitizers.Name][]byte, t *tracer, acc *layerAcc, op *int64) ([]time.Duration, error) {
	durs := make([]time.Duration, len(st.tools))
	for ti, jt := range st.tools {
		var v []byte
		if got != nil {
			v = make([]byte, 2*len(jt.cases))
			got[jt.name] = v
		}
		start := time.Now()
		for _, k := range jt.order {
			cs := jt.cases[k]
			for ver := 0; ver < 2; ver++ {
				p, in := cs.Bad, cs.BadInputs
				if ver == 1 {
					p, in = cs.Good, cs.GoodInputs
				}
				var res harness.Outcome
				var err error
				if t.on {
					_, res, _, err = tracedRun(t, "dispatch:harness.RunCaseOn", jt.eng, p, in, *op, acc)
				} else {
					t0 := time.Now()
					res, err = harness.RunCaseOn(jt.eng, p, in)
					times.us = append(times.us, float64(time.Since(t0).Nanoseconds())/1e3)
				}
				*op++
				o.attempted++
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", jt.name, cs.ID, err)
				}
				letter := verdictLetter[res]
				if v != nil {
					v[2*k+ver] = letter
				}
				if want := jt.want[2*k+ver]; letter != want {
					o.fail(1, "juliet %s %s version %d: verdict %c, golden %c", jt.name, cs.ID, ver, letter, want)
				}
			}
		}
		durs[ti] = time.Since(start)
	}
	return durs, nil
}

// runJuliet is the juliet workload.
func runJuliet(cfg config) (*outcome, error) {
	golden, err := julietGolden()
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: map[string]float64{}, meta: map[string]any{}}
	t := newTracer(false)
	var setups setupTimes
	var st *julietState
	nSetups := julietSetups
	if cfg.trace {
		nSetups = 1
		t.on = true
	}
	for i := 0; i < nSetups; i++ {
		st = nil
		heapLiveMB() // start every set-up from a collected heap
		start := time.Now()
		st, err = setupJuliet(cfg.seed, golden, t)
		if err != nil {
			return nil, err
		}
		setups.add(time.Since(start))
	}
	ops := 0
	for _, jt := range st.tools {
		ops += 2 * len(jt.cases)
	}
	o.meta["input"] = fmt.Sprintf("%d cases, %d ops per pass over %d tools", len(st.suite), ops, len(st.tools))

	if cfg.trace {
		return o, st.traced(cfg, o, t)
	}

	// Measured phase: whole passes until the configured time is spent.
	times := &opTimes{us: make([]float64, 0, 8*ops)}
	toolMS := make([][]float64, len(st.tools)) // each tool's pass times
	var op int64
	var tableII map[sanitizers.Name][]byte
	end := deadline(time.Now(), cfg.seconds)
	for first := true; first || time.Now().Before(end); first = false {
		var got map[sanitizers.Name][]byte
		if first {
			got = map[sanitizers.Name][]byte{}
			tableII = got
		}
		durs, err := st.pass(o, times, got, t, nil, &op)
		if err != nil {
			return nil, err
		}
		var passDur time.Duration
		for i, d := range durs {
			passDur += d
			toolMS[i] = append(toolMS[i], float64(d.Nanoseconds())/1e6)
		}
		times.round(ops, passDur)
	}
	o.metrics["heap_live_mb"] = heapLiveMB()
	st.checkTableII(o, tableII)

	o.metrics["setup_s"] = setups.median()
	times.report(o.metrics, o.meta)
	cellMS := make([]float64, len(toolMS))
	for i, ms := range toolMS {
		cellMS[i] = median(ms)
	}
	o.metrics["run_ms_geomean"] = geomean(cellMS)
	o.metrics["good_frac"] = float64(o.attempted-o.failed) / float64(o.attempted)
	ma, err := st.model(o)
	if err != nil {
		return nil, err
	}
	ma.report(o.metrics, false)
	return o, nil
}

// model runs the good version of every case natively and under CECSan and
// compares cycle-model cost and peak RSS, one row per case.
func (st *julietState) model(o *outcome) (*modelAcc, error) {
	native, err := engine.New(sanitizers.Native, engine.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	cecsan := st.tools[0].eng
	ma := newModelAcc()
	for _, cs := range st.suite {
		nr, nd, err := timedRun(native, cs.Good, cs.GoodInputs)
		if err != nil {
			return nil, err
		}
		cr, cd, err := timedRun(cecsan, cs.Good, cs.GoodInputs)
		if err != nil {
			return nil, err
		}
		if !nr.Ok() || !cr.Ok() {
			o.fail(0, "juliet %s good version: native ok=%v, CECSan ok=%v", cs.ID, nr.Ok(), cr.Ok())
			continue
		}
		ma.row(cs.ID, sanitizers.CECSan, nr.Stats, cr.Stats, nd, cd)
	}
	return ma, nil
}

// checkTableII recomputes the per-(tool, CWE) Table II counts from one
// pass's verdicts and compares them with the pinned table.
func (st *julietState) checkTableII(o *outcome, got map[sanitizers.Name][]byte) {
	want := julietTableII()
	for _, jt := range st.tools {
		rows := tableIIFrom(jt.cases, got[jt.name])
		for _, cwe := range juliet.AllCWEs() {
			if rows[cwe] != want[jt.name][cwe] {
				o.fail(0, "juliet Table II %s %v: got %v, pinned %v", jt.name, cwe, rows[cwe], want[jt.name][cwe])
			}
		}
	}
}

// tableIIRow is one (tool, CWE) cell: cases, detected, crashed, false
// positives — the counts behind the harness's CWEStats.
type tableIIRow [4]int

// tableIIFrom folds a verdict vector (bad, good per case) into Table II
// counts the way harness.EvaluateJuliet does.
func tableIIFrom(cases []*juliet.Case, v []byte) map[juliet.CWE]tableIIRow {
	rows := map[juliet.CWE]tableIIRow{}
	for k, cs := range cases {
		r := rows[cs.CWE]
		r[0]++
		switch v[2*k] {
		case 'd':
			r[1]++
		case 'x':
			r[2]++
		}
		if g := v[2*k+1]; g == 'd' || g == 'x' {
			r[3]++
		}
		rows[cs.CWE] = r
	}
	return rows
}

//go:embed testdata/juliet_verdicts.txt
var julietVerdictsTxt string

//go:embed testdata/juliet_table2.txt
var julietTable2Txt string

// julietGolden decodes the pinned verdict vector: one line per tool,
// "<tool>\t<verdicts>", where each case's (bad, good) verdict pair is two
// letters, followed by a repeat count when the same pair repeats.
func julietGolden() (map[sanitizers.Name][]byte, error) {
	out := map[sanitizers.Name][]byte{}
	for _, line := range strings.Split(strings.TrimSpace(julietVerdictsTxt), "\n") {
		name, enc, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("golden verdicts: malformed line %q", line)
		}
		var v []byte
		for i := 0; i+1 < len(enc); {
			pair := enc[i : i+2]
			j := i + 2
			for j < len(enc) && enc[j] >= '0' && enc[j] <= '9' {
				j++
			}
			n := 1
			if j > i+2 {
				var err error
				if n, err = strconv.Atoi(enc[i+2 : j]); err != nil {
					return nil, fmt.Errorf("golden verdicts %s: %w", name, err)
				}
			}
			for ; n > 0; n-- {
				v = append(v, pair...)
			}
			i = j
		}
		out[sanitizers.Name(name)] = v
	}
	for _, tool := range julietTools {
		if out[tool] == nil {
			return nil, fmt.Errorf("golden verdicts: no line for %s", tool)
		}
	}
	return out, nil
}

// encodeVerdicts is julietGolden's inverse for one tool.
func encodeVerdicts(v []byte) string {
	var b strings.Builder
	for i := 0; i+1 < len(v); {
		j := i
		for j+1 < len(v) && v[j] == v[i] && v[j+1] == v[i+1] {
			j += 2
		}
		b.Write(v[i : i+2])
		if n := (j - i) / 2; n > 1 {
			b.WriteString(strconv.Itoa(n))
		}
		i = j
	}
	return b.String()
}

// julietTableII decodes the pinned Table II counts: one line per (tool,
// CWE), "<tool>\t<CWE>\t<cases>\t<detected>\t<crashed>\t<false positives>".
func julietTableII() map[sanitizers.Name]map[juliet.CWE]tableIIRow {
	out := map[sanitizers.Name]map[juliet.CWE]tableIIRow{}
	for _, line := range strings.Split(strings.TrimSpace(julietTable2Txt), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 6 {
			continue
		}
		var r tableIIRow
		for i := range r {
			r[i], _ = strconv.Atoi(f[2+i])
		}
		cwe, _ := strconv.Atoi(strings.TrimPrefix(f[1], "CWE"))
		name := sanitizers.Name(f[0])
		if out[name] == nil {
			out[name] = map[juliet.CWE]tableIIRow{}
		}
		out[name][juliet.CWE(cwe)] = r
	}
	return out
}

// formatTableII renders counts in julietTableII's format.
func formatTableII(rows map[sanitizers.Name]map[juliet.CWE]tableIIRow) string {
	var b strings.Builder
	for _, tool := range julietTools {
		for _, cwe := range juliet.AllCWEs() {
			r := rows[tool][cwe]
			fmt.Fprintf(&b, "%s\t%v\t%d\t%d\t%d\t%d\n", tool, cwe, r[0], r[1], r[2], r[3])
		}
	}
	return b.String()
}

// traced is the juliet traced run: an untraced half-phase for the tracing
// overhead baseline, then a traced half-phase of whole passes whose first
// pass supplies the exact per-pass counts.
func (st *julietState) traced(cfg config, o *outcome, t *tracer) error {
	m := o.metrics
	var progs []*prog.Program
	var tools []sanitizers.Name
	for _, jt := range st.tools {
		for _, cs := range jt.cases[:min(julietApplyCases, len(jt.cases))] {
			progs = append(progs, cs.Bad, cs.Good)
			tools = append(tools, jt.name, jt.name)
		}
	}
	if err := applyTimes(t, progs, tools, m); err != nil {
		return err
	}

	var op int64
	round := func(times *opTimes, acc *layerAcc) (int, time.Duration, error) {
		before := engineStats(st.engines())
		n0 := o.attempted
		durs, err := st.pass(o, times, nil, t, acc, &op)
		if acc != nil && acc.counting {
			cacheCounts(m, st.prefills, before, engineStats(st.engines()))
		}
		return int(o.attempted - n0), sumDur(durs), err
	}
	plain, traced, acc, phaseStart, phaseEnd, err := tracedPhases(cfg, t, m, round)
	if err != nil {
		return err
	}

	sum := t.summarize(phaseStart, phaseEnd)
	m["input.build_ms"] = sum.named("input:juliet.Generate").TotalS * 1000
	m["engine.preinstrument_s"] = sum.named("engine:Preinstrument").TotalS
	m["dispatch.loop_us"] = sum.named("dispatch:harness.RunCaseOn").SelfS / float64(acc.total().ops) * 1e6
	zeroTraffic(m)
	sum.report(m, overheadPct(plain, traced))

	ma, err := st.model(o)
	if err != nil {
		return err
	}
	ma.report(m, true)
	return t.write(cfg.out, fmt.Sprintf("juliet-seed%d", cfg.seed), sum, map[string]any{"per_tool": acc.perTool()})
}

// engines lists every tool's engine.
func (st *julietState) engines() []*engine.Engine {
	out := make([]*engine.Engine, len(st.tools))
	for i, jt := range st.tools {
		out[i] = jt.eng
	}
	return out
}

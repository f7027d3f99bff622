package main

import (
	"fmt"
	"time"

	"cecsan/internal/engine"
	"cecsan/internal/interp"
	"cecsan/internal/sanitizers"
	"cecsan/internal/specsim"
	"cecsan/prog"
)

// The spec workload runs the SPEC CPU2006-like programs of Table IV
// natively and under CECSan, each on a fresh runtime and address space
// (FreshRuntime), as specbench does. An op is one (program, tool) run. The
// programs take no random input, so the seed is only recorded.

// specSetups is how many times a run sets the workload up; setup_s is the
// median.
const specSetups = 5

// specRet pins each program's return value (main's result as the native
// run computes it); native and CECSan runs must both return it.
var specRet = map[string]uint64{
	"400.perlbench":  799980000,
	"403.gcc":        97992,
	"429.mcf":        206475804326,
	"447.dealII":     0,
	"458.sjeng":      0,
	"462.libquantum": 84,
	"470.lbm":        0,
	"471.omnetpp":    28649860,
}

var specTools = []sanitizers.Name{sanitizers.Native, sanitizers.CECSan}

// specCell is one (program, tool) pair.
type specCell struct {
	name  string
	p     *prog.Program
	tool  sanitizers.Name
	eng   *engine.Engine
	runMS []float64 // every Machine.Run of the cell, in milliseconds
}

// medianMS returns the cell's median Machine.Run time.
func (c *specCell) medianMS() float64 { return median(append([]float64(nil), c.runMS...)) }

type specState struct {
	cells    []*specCell
	progs    []*prog.Program
	engines  []*engine.Engine
	prefills int64
}

// setupSpec builds the programs and one FreshRuntime engine per tool,
// pre-instruments every program, and runs every cell once untimed.
func setupSpec(t *tracer) (*specState, error) {
	st := &specState{}
	ws := specsim.Spec2006()
	for _, w := range ws {
		s := t.begin("input:specsim.Build", noSpan, -1)
		st.progs = append(st.progs, w.Build())
		t.end(s)
	}
	for _, tool := range specTools {
		s := t.begin("engine:engine.New", noSpan, -1)
		eng, err := engine.New(tool, engine.Options{FreshRuntime: true, Workers: 1})
		t.end(s)
		if err != nil {
			return nil, err
		}
		s = t.begin("engine:Preinstrument", noSpan, -1)
		eng.Preinstrument(st.progs)
		t.end(s)
		st.prefills += eng.Stats().CachePrefills
		st.engines = append(st.engines, eng)
	}
	for i, w := range ws {
		for ti, tool := range specTools {
			st.cells = append(st.cells, &specCell{name: w.Name, p: st.progs[i], tool: tool, eng: st.engines[ti]})
		}
	}
	for _, c := range st.cells {
		if _, _, err := timedRun(c.eng, c.p, nil); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// pass runs every cell once, checking each result, and returns the pass
// time and every cell's result.
func (st *specState) pass(o *outcome, times *opTimes, t *tracer, acc *layerAcc, op *int64) (time.Duration, []*interp.Result, error) {
	results := make([]*interp.Result, len(st.cells))
	start := time.Now()
	for i, c := range st.cells {
		var res *interp.Result
		var run time.Duration
		var err error
		if t.on {
			res, _, run, err = tracedRun(t, "dispatch:harness.EvaluatePerf", c.eng, c.p, nil, *op, acc)
		} else {
			t0 := time.Now()
			res, run, err = timedRun(c.eng, c.p, nil)
			times.us = append(times.us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		if err != nil {
			return 0, nil, fmt.Errorf("%s under %s: %w", c.name, c.tool, err)
		}
		*op++
		o.attempted++
		c.runMS = append(c.runMS, float64(run.Nanoseconds())/1e6)
		switch want, pinned := specRet[c.name]; {
		case !res.Ok():
			o.fail(1, "spec %s under %s: report %v, fault %v, error %v", c.name, c.tool, res.Violation, res.Fault, res.Err)
		case !pinned:
			o.fail(1, "spec %s: no pinned return value (ran to %d)", c.name, res.Ret)
		case res.Ret != want:
			o.fail(1, "spec %s under %s returned %d, native returns %d", c.name, c.tool, res.Ret, want)
		}
		results[i] = res
	}
	return time.Since(start), results, nil
}

// model compares each program's CECSan run with its native run (pass
// results, cells in (native, CECSan) pairs) using the cells' median runs
// for the time difference.
func (st *specState) model(results []*interp.Result) *modelAcc {
	ma := newModelAcc()
	for i := 0; i+1 < len(st.cells); i += 2 {
		nat, ins := st.cells[i], st.cells[i+1]
		ma.row(nat.name, ins.tool, results[i].Stats, results[i+1].Stats, msDur(nat.medianMS()), msDur(ins.medianMS()))
	}
	return ma
}

// runSpec is the spec workload.
func runSpec(cfg config) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, meta: map[string]any{}}
	t := newTracer(false)
	var setups setupTimes
	var st *specState
	nSetups := specSetups
	if cfg.trace {
		nSetups = 1
		t.on = true
	}
	for i := 0; i < nSetups; i++ {
		st = nil
		heapLiveMB() // start every set-up from a collected heap
		start := time.Now()
		var err error
		if st, err = setupSpec(t); err != nil {
			return nil, err
		}
		setups.add(time.Since(start))
	}
	o.meta["input"] = fmt.Sprintf("%d programs x %d tools, FreshRuntime", len(st.progs), len(specTools))

	if cfg.trace {
		return o, st.traced(cfg, o, t)
	}

	times := &opTimes{}
	var op int64
	var first []*interp.Result
	end := deadline(time.Now(), cfg.seconds)
	for time.Now().Before(end) || first == nil {
		d, results, err := st.pass(o, times, t, nil, &op)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = results
		}
		times.round(len(st.cells), d)
	}
	o.metrics["heap_live_mb"] = heapLiveMB()
	o.metrics["setup_s"] = setups.median()
	times.report(o.metrics, o.meta)
	cellMS := make([]float64, len(st.cells))
	for i, c := range st.cells {
		cellMS[i] = c.medianMS()
	}
	o.metrics["run_ms_geomean"] = geomean(cellMS)
	o.metrics["good_frac"] = float64(o.attempted-o.failed) / float64(o.attempted)
	st.model(first).report(o.metrics, false)
	return o, nil
}

// traced is the spec traced run: an untraced half-phase, then a traced
// half-phase whose first pass supplies the exact per-pass counts.
func (st *specState) traced(cfg config, o *outcome, t *tracer) error {
	m := o.metrics
	var progs []*prog.Program
	var tools []sanitizers.Name
	for _, c := range st.cells {
		progs = append(progs, c.p)
		tools = append(tools, c.tool)
	}
	if err := applyTimes(t, progs, tools, m); err != nil {
		return err
	}

	var op int64
	var first []*interp.Result
	round := func(times *opTimes, acc *layerAcc) (int, time.Duration, error) {
		before := engineStats(st.engines)
		d, results, err := st.pass(o, times, t, acc, &op)
		if acc != nil && acc.counting {
			first = results
			cacheCounts(m, st.prefills, before, engineStats(st.engines))
		}
		return len(st.cells), d, err
	}
	plain, traced, acc, phaseStart, phaseEnd, err := tracedPhases(cfg, t, m, round)
	if err != nil {
		return err
	}

	sum := t.summarize(phaseStart, phaseEnd)
	m["input.build_ms"] = sum.named("input:specsim.Build").TotalS * 1000
	m["engine.preinstrument_s"] = sum.named("engine:Preinstrument").TotalS
	m["dispatch.loop_us"] = sum.named("dispatch:harness.EvaluatePerf").SelfS / float64(acc.total().ops) * 1e6
	zeroTraffic(m)
	sum.report(m, overheadPct(plain, traced))
	st.model(first).report(m, true)

	detail := map[string]any{"per_tool": acc.perTool()}
	for _, c := range st.cells {
		detail["interp.run_ms."+c.name+"."+string(c.tool)] = c.medianMS()
	}
	return t.write(cfg.out, fmt.Sprintf("spec-seed%d", cfg.seed), sum, detail)
}

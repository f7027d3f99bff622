package main

import (
	"time"

	"cecsan/internal/core"
	"cecsan/internal/engine"
	"cecsan/internal/harness"
	"cecsan/internal/instrument"
	"cecsan/internal/interp"
	"cecsan/internal/sanitizers"
	"cecsan/prog"
)

// layerAcc accumulates the per-layer view of the traced ops: time per
// public call, and exact counts over one designated pass.
type layerAcc struct {
	instructions, checks               int64
	mallocs, frees, libcCalls          int64
	tableAllocs, tableHighWater, metaB int64
	countedRunNS                       int64 // Machine.Run time of the counted ops
	counting                           bool  // fold exact counts of this op
	byTool                             map[sanitizers.Name]*toolTimes
}

// toolTimes sums one tool's per-call times over its traced ops.
type toolTimes struct{ newMachineNS, runNS, relNS, ops int64 }

// total sums the per-tool times over every tool.
func (a *layerAcc) total() toolTimes {
	var t toolTimes
	for _, v := range a.byTool {
		t.newMachineNS += v.newMachineNS
		t.runNS += v.runNS
		t.relNS += v.relNS
		t.ops += v.ops
	}
	return t
}

// perTool returns the mean NewMachine, Machine.Run and Release time per op
// of each tool, in microseconds, for the traced summary.
func (a *layerAcc) perTool() map[string]any {
	out := map[string]any{}
	for tool, v := range a.byTool {
		n := float64(v.ops)
		out[string(tool)] = map[string]float64{
			"engine.new_machine_us": float64(v.newMachineNS) / n / 1e3,
			"interp.run_us":         float64(v.runNS) / n / 1e3,
			"engine.release_us":     float64(v.relNS) / n / 1e3,
		}
	}
	return out
}

// tracedRun executes p the way engine.Engine.Run does — NewMachine, Feed,
// Run, Release — with a span around each public call, under a dispatch span
// named root. It returns the result, its outcome as harness.Classify sees
// it, and how long Machine.Run took.
func tracedRun(t *tracer, root string, eng *engine.Engine, p *prog.Program, inputs [][]byte, op int64, acc *layerAcc) (*interp.Result, harness.Outcome, time.Duration, error) {
	r := t.begin(root, noSpan, op)
	s := t.begin("engine:NewMachine", r, op)
	m, err := eng.NewMachine(p)
	t.end(s)
	if err != nil {
		t.end(r)
		return nil, harness.OutcomeError, 0, err
	}
	m.Feed(inputs...)
	run := t.begin("interp:Machine.Run", r, op)
	res := m.Run()
	t.end(run)
	var ts core.TableStats
	var touched int64
	cr, isCore := m.Runtime().(*core.Runtime)
	if isCore && acc.counting {
		ts, touched = cr.Table().Stats(), cr.Table().TouchedBytes()
	}
	rel := t.begin("engine:Machine.Release", r, op)
	m.Release()
	t.end(rel)
	out := harness.Classify(res)
	t.end(r)

	sp := t.spans
	if acc.byTool == nil {
		acc.byTool = map[sanitizers.Name]*toolTimes{}
	}
	bt := acc.byTool[eng.Tool()]
	if bt == nil {
		bt = &toolTimes{}
		acc.byTool[eng.Tool()] = bt
	}
	bt.newMachineNS += sp[s].end - sp[s].start
	bt.runNS += sp[run].end - sp[run].start
	bt.relNS += sp[rel].end - sp[rel].start
	bt.ops++
	if acc.counting {
		acc.countedRunNS += sp[run].end - sp[run].start
		acc.instructions += res.Stats.Instructions
		acc.checks += res.Stats.ChecksExecuted
		acc.mallocs += res.Stats.Mallocs
		acc.frees += res.Stats.Frees
		acc.libcCalls += res.Stats.LibcCalls
		if isCore {
			acc.tableAllocs += ts.Allocs
			acc.tableHighWater = max(acc.tableHighWater, int64(ts.HighWater))
			acc.metaB = max(acc.metaB, touched)
		}
	}
	return res, out, time.Duration(sp[run].end - sp[run].start), nil
}

// report fills the per-op engine and interp metrics and the exact counts.
func (a *layerAcc) report(m map[string]float64) {
	per := func(ns int64, n int64) float64 { return float64(ns) / float64(n) / 1e3 }
	tot, cec := a.total(), a.byTool[sanitizers.CECSan]
	m["engine.new_machine_us"] = per(tot.newMachineNS, tot.ops)
	m["engine.release_us"] = per(tot.relNS, tot.ops)
	m["interp.run_us"] = per(tot.runNS, tot.ops)
	m["interp.run_us.CECSan"] = per(cec.runNS, cec.ops)
	m["interp.ns_per_instr"] = float64(a.countedRunNS) / float64(a.instructions)
	m["interp.instructions"] = float64(a.instructions)
	m["interp.checks_executed"] = float64(a.checks)
	m["interp.mallocs"] = float64(a.mallocs)
	m["interp.frees"] = float64(a.frees)
	m["interp.libc_calls"] = float64(a.libcCalls)
	m["core.table_allocs"] = float64(a.tableAllocs)
	m["core.table_high_water"] = float64(a.tableHighWater)
	m["core.meta_peak_kb"] = float64(a.metaB) / 1024
}

// applyTimes times instrument.Apply (plus Fuse, as the engine runs it) on
// each program under the profile of the matching tool, and counts the
// static checks it inserts.
func applyTimes(t *tracer, progs []*prog.Program, tools []sanitizers.Name, m map[string]float64) error {
	var ns, checks int64
	for i, p := range progs {
		pr, err := sanitizers.ProfileFor(tools[i])
		if err != nil {
			return err
		}
		s := t.begin("instrument:instrument.Apply", noSpan, -1)
		start := time.Now()
		ip := instrument.Apply(p, pr)
		instrument.Fuse(ip)
		ns += time.Since(start).Nanoseconds()
		t.end(s)
		for _, f := range ip.Funcs {
			for _, in := range f.Code {
				if in.Op == prog.OpCheckAccess || in.Op == prog.OpCheckPeriodic {
					checks++
				}
			}
		}
	}
	m["instrument.apply_us"] = float64(ns) / float64(len(progs)) / 1e3
	m["instrument.checks_static"] = float64(checks)
	return nil
}

// cacheCounts fills the engine cache counters from stats deltas.
func cacheCounts(m map[string]float64, prefills int64, before, after []engine.Stats) {
	var hits, misses, overflows int64
	for i := range after {
		hits += after[i].CacheHits - before[i].CacheHits
		misses += after[i].CacheMisses - before[i].CacheMisses
		overflows += after[i].CacheOverflows - before[i].CacheOverflows
	}
	m["engine.cache_prefills"] = float64(prefills)
	m["engine.cache_hits"] = float64(hits)
	m["engine.cache_misses"] = float64(misses)
	m["engine.cache_overflows"] = float64(overflows)
}

// modelAcc collects the cycle-model and peak-RSS comparison of instrumented
// runs against native runs of the same programs, one row per program, and
// aggregates them with the harness's own geomean rows (Tables IV/V).
type modelAcc struct {
	cycles                               harness.CycleTable
	mem                                  harness.PerfTable
	native, instr                        float64 // summed model cycles
	nativeRunNS, instrRunNS, instrChecks int64
}

var costModels = harness.CostModels()

// instrumented is the column name the rows use for the instrumented tool.
const instrumented sanitizers.Name = "instrumented"

func newModelAcc() *modelAcc {
	tools := []sanitizers.Name{instrumented}
	return &modelAcc{cycles: harness.CycleTable{Tools: tools}, mem: harness.PerfTable{Tools: tools}}
}

// row adds one program's native and instrumented runs.
func (a *modelAcc) row(name string, tool sanitizers.Name, nat, ins interp.Stats, natRun, insRun time.Duration) {
	nc := harness.ModelCycles(nat, costModels[sanitizers.Native])
	if base, ok := sanitizers.Base(tool); ok {
		tool = base // hardened profiles carry their base tool's weights
	}
	ic := harness.ModelCycles(ins, costModels[tool])
	a.native += nc
	a.instr += ic
	a.cycles.Rows = append(a.cycles.Rows, harness.CycleRow{
		Benchmark: name, NativeCycles: nc,
		OverheadPct: map[sanitizers.Name]float64{instrumented: 100 * (ic/nc - 1)},
	})
	a.mem.Rows = append(a.mem.Rows, harness.PerfRow{
		Benchmark: name, NativeRSS: nat.PeakRSS,
		MemoryPct: map[sanitizers.Name]float64{instrumented: 100 * (float64(ins.PeakRSS)/float64(nat.PeakRSS) - 1)},
	})
	a.nativeRunNS += natRun.Nanoseconds()
	a.instrRunNS += insRun.Nanoseconds()
	a.instrChecks += ins.ChecksExecuted
}

// report fills the end-to-end model metrics, or the per-layer cycle and
// check-cost metrics when tracing.
func (a *modelAcc) report(m map[string]float64, traced bool) {
	if !traced {
		m["model_overhead_pct"] = a.cycles.Geomean(instrumented)
		m["mem_overhead_pct"] = a.mem.Geomean(instrumented, true)
		return
	}
	m["harness.model_cycles.native"] = a.native
	m["harness.model_cycles.instrumented"] = a.instr
	m["core.check_ns"] = float64(a.instrRunNS-a.nativeRunNS) / float64(a.instrChecks)
}

// timedRun runs p once on a machine of eng, timing Machine.Run alone.
func timedRun(eng *engine.Engine, p *prog.Program, inputs [][]byte) (*interp.Result, time.Duration, error) {
	m, err := eng.NewMachine(p)
	if err != nil {
		return nil, 0, err
	}
	m.Feed(inputs...)
	start := time.Now()
	res := m.Run()
	d := time.Since(start)
	m.Release()
	return res, d, nil
}

// engineStats snapshots engine counters.
func engineStats(engs []*engine.Engine) []engine.Stats {
	out := make([]engine.Stats, len(engs))
	for i, e := range engs {
		out[i] = e.Stats()
	}
	return out
}

// zeroTraffic fills the traffic counts on workloads that do not go through
// the traffic layer.
func zeroTraffic(m map[string]float64) {
	for _, k := range []string{"traffic.generated", "traffic.completed", "traffic.shed", "traffic.faults", "traffic.deadline_misses"} {
		m[k] = 0
	}
}

// tracedPhases runs the two halves of a traced run's measured phase:
// untraced rounds, the baseline for the tracing overhead and the source of
// the allocation rate, then traced rounds, whose first round alone feeds
// the exact counts (acc.counting is set during it). round runs one round
// and returns its op count and wall time; it gets nil times when traced
// and a nil acc when not. The traced rounds' span window is returned.
func tracedPhases(cfg config, t *tracer, m map[string]float64, round func(times *opTimes, acc *layerAcc) (int, time.Duration, error)) (plain, traced *opTimes, acc *layerAcc, start, end int64, err error) {
	half := cfg.seconds / 2
	t.on = false
	plain = &opTimes{}
	alloc0 := totalAlloc()
	stop := deadline(time.Now(), half)
	for plain.ops == 0 || time.Now().Before(stop) {
		n, d, err := round(plain, nil)
		if err != nil {
			return nil, nil, nil, 0, 0, err
		}
		plain.round(n, d)
	}
	m["engine.alloc_kb_per_op"] = float64(totalAlloc()-alloc0) / float64(plain.ops) / 1024
	m["op_p99_us"] = plain.p99()
	t.on = true

	acc = &layerAcc{counting: true}
	traced = &opTimes{}
	start = t.now()
	stop = deadline(time.Now(), half)
	for traced.ops == 0 || time.Now().Before(stop) {
		n, d, err := round(nil, acc)
		if err != nil {
			return nil, nil, nil, 0, 0, err
		}
		acc.counting = false
		traced.round(n, d)
	}
	acc.report(m)
	return plain, traced, acc, start, t.now(), nil
}

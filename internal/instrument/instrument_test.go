package instrument

import (
	"testing"

	"cecsan/internal/core"
	"cecsan/internal/interp"
	"cecsan/internal/rt"
	"cecsan/prog"
)

// cecsanOpts returns CECSan options with everything enabled.
func cecsanOpts() core.Options { return core.DefaultOptions() }

// runCECSan instruments and runs a program under CECSan with the given
// options.
func runCECSan(t *testing.T, p *prog.Program, opts core.Options) *interp.Result {
	t.Helper()
	san, err := core.Sanitizer(opts)
	if err != nil {
		t.Fatalf("Sanitizer: %v", err)
	}
	ip := Apply(p, san.Profile)
	m, err := interp.New(ip, san, interp.DefaultOptions())
	if err != nil {
		t.Fatalf("interp.New: %v", err)
	}
	return m.Run()
}

func countOps(f *prog.Func, op prog.Op) int {
	n := 0
	for i := range f.Code {
		if f.Code[i].Op == op {
			n++
		}
	}
	return n
}

func TestApplyDoesNotModifyOriginal(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	b := f.MallocBytes(8)
	f.Store(b, 0, f.Const(1), prog.Int64T())
	f.RetVoid()
	p := pb.MustBuild()
	before := len(p.Funcs["main"].Code)
	san, _ := core.Sanitizer(cecsanOpts())
	_ = Apply(p, san.Profile)
	if got := len(p.Funcs["main"].Code); got != before {
		t.Fatalf("Apply mutated the input program: %d -> %d instructions", before, got)
	}
}

func TestChecksInsertedForHeapAccesses(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	b := f.MallocReg(f.Const(64)) // dynamic size: no static info
	idx := f.Libc("rand")
	p := f.OffsetPtrReg(b, idx)
	f.Store(p, 0, f.Const(1), prog.Char())
	v := f.Load(p, 0, prog.Char())
	f.Ret(v)
	built := pb.MustBuild()
	opts := cecsanOpts()
	opts.OptRedundant = false // observe raw insertion
	san, _ := core.Sanitizer(opts)
	ip := Apply(built, san.Profile)
	if got := countOps(ip.Funcs["main"], prog.OpCheckAccess); got != 2 {
		t.Fatalf("inserted %d checks, want 2 (one store, one load)\n%s", got, ip.Funcs["main"].Dump())
	}
}

// TestTypeBasedRemoval verifies §II.F.2: accesses statically provable
// in-bounds (constant field offsets, constant in-bounds array indices)
// carry no runtime check, while out-of-range or dynamic ones do.
func TestTypeBasedRemoval(t *testing.T) {
	arr := prog.ArrayOf(prog.Int(), 16)
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	buf := f.Alloca(arr)
	// buf[15]: statically safe -> no check.
	safe := f.IndexPtr(buf, arr, f.Const(15))
	f.Store(safe, 0, f.Const(1), prog.Int())
	// buf[i] with dynamic i -> check.
	i := f.Libc("rand")
	dyn := f.IndexPtr(buf, arr, i)
	f.Store(dyn, 0, f.Const(2), prog.Int())
	f.RetVoid()
	built := pb.MustBuild()

	san, _ := core.Sanitizer(cecsanOpts())
	ip := Apply(built, san.Profile)
	if got := countOps(ip.Funcs["main"], prog.OpCheckAccess); got != 1 {
		t.Fatalf("checks = %d, want 1 (only the dynamic index)\n%s", got, ip.Funcs["main"].Dump())
	}

	// With the optimization off, both accesses are checked.
	opts := cecsanOpts()
	opts.OptTypeBased = false
	san2, _ := core.Sanitizer(opts)
	ip2 := Apply(built, san2.Profile)
	if got := countOps(ip2.Funcs["main"], prog.OpCheckAccess); got != 2 {
		t.Fatalf("ablation checks = %d, want 2", got)
	}
}

func TestStackClassification(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	// Safe scalar: accessed directly, in-bounds; must stay untracked.
	scalar := f.Alloca(prog.Int64T())
	f.Store(scalar, 0, f.Const(42), prog.Int64T())
	// Unsafe buffer: passed to a libc function; must be tracked.
	buf := f.Alloca(prog.ArrayOf(prog.Char(), 16))
	f.Libc("memset", buf, f.Const(0), f.Const(16))
	f.RetVoid()
	built := pb.MustBuild()
	san, _ := core.Sanitizer(cecsanOpts())
	ip := Apply(built, san.Profile)

	fn := ip.Funcs["main"]
	var trackedStates []bool
	for _, ai := range fn.Allocas {
		trackedStates = append(trackedStates, fn.Code[ai].Has(prog.FlagTracked))
	}
	if len(trackedStates) != 2 {
		t.Fatalf("allocas = %d, want 2", len(trackedStates))
	}
	if trackedStates[0] {
		t.Error("safe scalar alloca was tracked (§II.C.3 says direct accesses need no metadata)")
	}
	if !trackedStates[1] {
		t.Error("buffer passed to libc not tracked")
	}
}

func TestGlobalClassification(t *testing.T) {
	pb := prog.NewProgram()
	pb.Global("safe_flag", prog.Int())
	pb.Global("unsafe_buf", prog.ArrayOf(prog.Char(), 32))
	f := pb.Function("main", 0)
	g := f.GlobalAddr("safe_flag")
	f.Store(g, 0, f.Const(1), prog.Int())
	ub := f.GlobalAddr("unsafe_buf")
	f.Libc("memset", ub, f.Const(0), f.Const(32))
	f.RetVoid()
	built := pb.MustBuild()
	san, _ := core.Sanitizer(cecsanOpts())
	ip := Apply(built, san.Profile)

	byName := map[string]prog.GlobalSpec{}
	for _, gs := range ip.Globals {
		byName[gs.Name] = gs
	}
	if byName["safe_flag"].AddressTaken {
		t.Error("statically safe global marked unsafe")
	}
	if !byName["unsafe_buf"].AddressTaken {
		t.Error("global passed to libc not marked unsafe")
	}
}

// TestSubObjectNarrowingEndToEnd reproduces Figure 3 end to end: the
// memcpy whose size is sizeof(struct) instead of sizeof(field) must be
// reported by CECSan as a sub-object overflow.
func TestSubObjectNarrowingEndToEnd(t *testing.T) {
	st := prog.StructOf("CharVoid",
		prog.FieldSpec{Name: "charFirst", Type: prog.ArrayOf(prog.Char(), 16)},
		prog.FieldSpec{Name: "voidSecond", Type: prog.VoidPtr()},
	)
	build := func(copyLen int64) *prog.Program {
		pb := prog.NewProgram()
		pb.GlobalBytes("src", make([]byte, 32))
		f := pb.Function("main", 0)
		obj := f.MallocType(st)
		fp := f.FieldPtr(obj, st, "charFirst")
		f.Libc("memcpy", fp, f.GlobalAddr("src"), f.Const(copyLen))
		f.Free(obj)
		f.RetVoid()
		return pb.MustBuild()
	}

	// Bad version: memcpy(ptr, src, sizeof(struct)) = 24 > 16.
	res := runCECSan(t, build(24), cecsanOpts())
	if res.Violation == nil {
		t.Fatalf("sub-object overflow not detected: %+v", res)
	}
	if res.Violation.Kind != rt.KindSubObjectOverflow {
		t.Errorf("kind = %v, want sub-object-overflow", res.Violation.Kind)
	}
	// Good version: memcpy of exactly the field size.
	if res := runCECSan(t, build(16), cecsanOpts()); !res.Ok() {
		t.Fatalf("false positive on good version: %+v", res)
	}
	// Without sub-object narrowing (PACMem/CryptSan model) the bad copy
	// stays inside the object and is missed.
	opts := cecsanOpts()
	opts.SubObject = false
	opts.Name = "PACMem-model"
	if res := runCECSan(t, build(24), opts); res.Violation != nil {
		t.Fatalf("object-granular model unexpectedly detected sub-object overflow: %v", res.Violation)
	}
}

// TestSubPtrLoopChurnDoesNotExhaustTable: sub-object pointers created in a
// loop must recycle their metadata entries (pre-release + free list), not
// leak 2^17 entries.
func TestSubPtrLoopChurnDoesNotExhaustTable(t *testing.T) {
	st := prog.StructOf("Pair",
		prog.FieldSpec{Name: "data", Type: prog.ArrayOf(prog.Char(), 8)},
		prog.FieldSpec{Name: "n", Type: prog.Int64T()},
	)
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	obj := f.MallocType(st)
	iv := f.Libc("rand") // defeat static safety so narrowing happens
	f.ForRange(prog.ConstOperand(0), prog.ConstOperand(200_000), 1, func(i prog.Reg) {
		fp := f.FieldPtr(obj, st, "data")
		q := f.OffsetPtrReg(fp, f.Bin(prog.BinAnd, iv, f.Const(7)))
		f.Store(q, 0, i, prog.Char())
	})
	f.Free(obj)
	f.RetVoid()
	built := pb.MustBuild()

	san, err := core.Sanitizer(cecsanOpts())
	if err != nil {
		t.Fatal(err)
	}
	ip := Apply(built, san.Profile)
	m, err := interp.New(ip, san, interp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if !res.Ok() {
		t.Fatalf("churn run failed: %+v", res)
	}
	cr, ok := san.Runtime.(*core.Runtime)
	if !ok {
		t.Fatal("runtime is not core.Runtime")
	}
	stats := cr.Table().Stats()
	if stats.Exhausted != 0 {
		t.Fatalf("table exhausted %d times during sub-object churn", stats.Exhausted)
	}
	if stats.HighWater > 64 {
		t.Fatalf("high water = %d, want small (entries must recycle)", stats.HighWater)
	}
}

func TestRedundantCheckElimination(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	b := f.MallocReg(f.Const(64))
	idx := f.Libc("rand")
	p := f.OffsetPtrReg(b, f.Bin(prog.BinAnd, idx, f.Const(31)))
	// Same location written twice then read: 3 accesses, 1 surviving check
	// (the first write subsumes the second write and the read).
	f.Store(p, 0, f.Const(1), prog.Int64T())
	f.Store(p, 0, f.Const(2), prog.Int64T())
	v := f.Load(p, 0, prog.Int64T())
	f.Ret(v)
	built := pb.MustBuild()

	san, _ := core.Sanitizer(cecsanOpts())
	ip := Apply(built, san.Profile)
	if got := countOps(ip.Funcs["main"], prog.OpCheckAccess); got != 1 {
		t.Fatalf("checks after redundancy elimination = %d, want 1\n%s", got, ip.Funcs["main"].Dump())
	}

	opts := cecsanOpts()
	opts.OptRedundant = false
	san2, _ := core.Sanitizer(opts)
	ip2 := Apply(built, san2.Profile)
	if got := countOps(ip2.Funcs["main"], prog.OpCheckAccess); got != 3 {
		t.Fatalf("ablation checks = %d, want 3", got)
	}
}

func TestReadCheckDoesNotSubsumeWrite(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	b := f.MallocReg(f.Const(64))
	idx := f.Libc("rand")
	p := f.OffsetPtrReg(b, f.Bin(prog.BinAnd, idx, f.Const(31)))
	v := f.Load(p, 0, prog.Int64T())
	f.Store(p, 0, v, prog.Int64T())
	f.RetVoid()
	built := pb.MustBuild()
	san, _ := core.Sanitizer(cecsanOpts())
	ip := Apply(built, san.Profile)
	// Read then write: the read check must NOT absorb the write check.
	if got := countOps(ip.Funcs["main"], prog.OpCheckAccess); got != 2 {
		t.Fatalf("checks = %d, want 2 (read does not subsume write)\n%s", got, ip.Funcs["main"].Dump())
	}
}

// TestRedefinitionEndsRedundancy requires a check to survive when its
// pointer register was reassigned since an identical earlier check in the
// block: the two checks guard different objects.
func TestRedefinitionEndsRedundancy(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	a, b := f.MallocBytes(16), f.MallocBytes(16)
	p := f.Mov(a)
	f.Store(p, 0, f.Const(1), prog.Int64T())
	f.Assign(p, b)
	f.Store(p, 0, f.Const(2), prog.Int64T())
	f.RetVoid()
	san, _ := core.Sanitizer(cecsanOpts())
	ip := Apply(pb.MustBuild(), san.Profile)
	if got := countOps(ip.Funcs["main"], prog.OpCheckAccess); got != 2 {
		t.Fatalf("checks = %d, want 2 (one per object)\n%s", got, ip.Funcs["main"].Dump())
	}
}

// TestLoopInvariantHoisting verifies §II.F.1: a check on a loop-invariant
// pointer executes once (after the loop), not once per iteration — for
// stores too, which redzone-based tools cannot relocate.
func TestLoopInvariantHoisting(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	b := f.MallocReg(f.Const(64))
	idx := f.Libc("rand")
	p := f.OffsetPtrReg(b, f.Bin(prog.BinAnd, idx, f.Const(31)))
	acc := f.NewReg()
	f.AssignConst(acc, 0)
	f.ForRange(prog.ConstOperand(0), prog.ConstOperand(1000), 1, func(i prog.Reg) {
		f.Store(p, 0, i, prog.Int64T()) // invariant pointer, write
	})
	f.Ret(acc)
	built := pb.MustBuild()

	run := func(opts core.Options) int64 {
		res := runCECSan(t, built, opts)
		if !res.Ok() {
			t.Fatalf("run failed: %+v", res)
		}
		return res.Stats.ChecksExecuted
	}
	withOpt := run(cecsanOpts())
	noOpts := cecsanOpts()
	noOpts.OptLoopInvariant = false
	noOpts.OptMonotonic = false
	withoutOpt := run(noOpts)

	if withoutOpt < 1000 {
		t.Fatalf("unoptimized checks = %d, want >= 1000", withoutOpt)
	}
	if withOpt > 10 {
		t.Fatalf("optimized checks = %d, want <= 10 (single relocated check)", withOpt)
	}
}

// TestMonotonicGrouping verifies Figure 4a: a linear array sweep executes
// roughly 1/check_step of the checks while still catching overflows.
func TestMonotonicGrouping(t *testing.T) {
	build := func(n int64) *prog.Program {
		pb := prog.NewProgram()
		f := pb.Function("main", 0)
		arrTy := prog.ArrayOf(prog.Int64T(), 1000)
		b := f.MallocType(arrTy)
		f.ForRange(prog.ConstOperand(0), prog.ConstOperand(n), 1, func(i prog.Reg) {
			p := f.ElemPtr(b, prog.Int64T(), i)
			f.Store(p, 0, i, prog.Int64T())
		})
		f.Free(b)
		f.RetVoid()
		return pb.MustBuild()
	}

	// Good sweep: exactly fills the array.
	res := runCECSan(t, build(1000), cecsanOpts())
	if !res.Ok() {
		t.Fatalf("false positive on exact sweep: %+v", res)
	}
	if res.Stats.ChecksExecuted > 250 {
		t.Fatalf("grouped checks = %d, want ~200 (1000/5)", res.Stats.ChecksExecuted)
	}
	// Ablation: per-element checking.
	noOpt := cecsanOpts()
	noOpt.OptMonotonic = false
	noOpt.OptLoopInvariant = false
	res2 := runCECSan(t, build(1000), noOpt)
	if res2.Stats.ChecksExecuted < 1000 {
		t.Fatalf("ungrouped checks = %d, want >= 1000", res2.Stats.ChecksExecuted)
	}

	// Bad sweep: overflows by one element; grouping must not lose it.
	res3 := runCECSan(t, build(1001), cecsanOpts())
	if res3.Violation == nil {
		t.Fatal("grouped checks missed the overflow")
	}
	// Non-multiple-of-5 limits must not false-positive (widened checks are
	// clamped at the loop limit).
	for _, n := range []int64{997, 998, 999, 1} {
		if res := runCECSan(t, build(n), cecsanOpts()); !res.Ok() {
			t.Fatalf("false positive at n=%d: %+v", n, res)
		}
	}
}

// TestOptimizationsPreserveDetection runs a matrix of bad programs under
// every combination of optimization toggles: optimizations must never cost
// a detection.
func TestOptimizationsPreserveDetection(t *testing.T) {
	overflowProg := func() *prog.Program {
		pb := prog.NewProgram()
		f := pb.Function("main", 0)
		arrTy := prog.ArrayOf(prog.Int64T(), 64)
		b := f.MallocType(arrTy)
		f.ForRange(prog.ConstOperand(0), prog.ConstOperand(65), 1, func(i prog.Reg) {
			f.Store(f.ElemPtr(b, prog.Int64T(), i), 0, i, prog.Int64T())
		})
		f.RetVoid()
		return pb.MustBuild()
	}
	uafProg := func() *prog.Program {
		pb := prog.NewProgram()
		f := pb.Function("main", 0)
		b := f.MallocBytes(64)
		f.Free(b)
		f.Store(b, 0, f.Const(1), prog.Int64T())
		f.RetVoid()
		return pb.MustBuild()
	}
	progs := map[string]*prog.Program{"loop overflow": overflowProg(), "uaf": uafProg()}

	for mask := 0; mask < 16; mask++ {
		opts := cecsanOpts()
		opts.OptRedundant = mask&1 != 0
		opts.OptLoopInvariant = mask&2 != 0
		opts.OptMonotonic = mask&4 != 0
		opts.OptTypeBased = mask&8 != 0
		for name, p := range progs {
			if res := runCECSan(t, p, opts); res.Violation == nil {
				t.Errorf("mask %04b: %s not detected (res=%+v)", mask, name, res)
			}
		}
	}
}

// TestPtrMetaInstrumentation checks the SoftBound-style propagation ops are
// inserted for pointer-valued loads and stores only.
func TestPtrMetaInstrumentation(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	pp := f.MallocType(prog.PtrTo(prog.Int()))
	q := f.MallocBytes(4)
	f.Store(pp, 0, q, prog.PtrTo(prog.Int()))  // pointer store
	v := f.Load(pp, 0, prog.PtrTo(prog.Int())) // pointer load
	f.Store(v, 0, f.Const(7), prog.Int())      // integer store
	f.RetVoid()
	built := pb.MustBuild()

	profile := rt.Profile{Name: "sb", CheckLoads: true, CheckStores: true, PtrMeta: true}
	ip := Apply(built, profile)
	if got := countOps(ip.Funcs["main"], prog.OpPtrMetaStore); got != 1 {
		t.Errorf("PtrMetaStore = %d, want 1", got)
	}
	if got := countOps(ip.Funcs["main"], prog.OpPtrMetaLoad); got != 1 {
		t.Errorf("PtrMetaLoad = %d, want 1", got)
	}
}

// TestEscapingFieldPointerNotNarrowed: returning &obj->field must not be
// narrowed, or the scope-exit release would turn the caller's legal use
// into a false use-after-scope.
func TestEscapingFieldPointerNotNarrowed(t *testing.T) {
	st := prog.StructOf("S",
		prog.FieldSpec{Name: "buf", Type: prog.ArrayOf(prog.Char(), 8)},
		prog.FieldSpec{Name: "n", Type: prog.Int64T()},
	)
	pb := prog.NewProgram()
	get := pb.Function("get_buf", 1)
	get.Ret(get.FieldPtr(get.Arg(0), st, "buf"))
	f := pb.Function("main", 0)
	obj := f.MallocType(st)
	fp := f.Call("get_buf", obj)
	f.Libc("memset", fp, f.Const(0), f.Const(8))
	f.Free(obj)
	f.RetVoid()
	built := pb.MustBuild()

	if res := runCECSan(t, built, cecsanOpts()); !res.Ok() {
		t.Fatalf("false positive on escaping field pointer: %+v", res)
	}
}

func TestGPTGlobalProtectionEndToEnd(t *testing.T) {
	arr := prog.ArrayOf(prog.Char(), 16)
	build := func(n int64) *prog.Program {
		pb := prog.NewProgram()
		pb.Global("g_buf", arr)
		f := pb.Function("main", 0)
		g := f.GlobalAddr("g_buf")
		f.Libc("memset", g, f.Const(0x41), f.Const(n))
		f.RetVoid()
		return pb.MustBuild()
	}
	if res := runCECSan(t, build(16), cecsanOpts()); !res.Ok() {
		t.Fatalf("false positive on in-bounds global write: %+v", res)
	}
	res := runCECSan(t, build(17), cecsanOpts())
	if res.Violation == nil {
		t.Fatal("global buffer overflow not detected through the GPT")
	}
	if res.Violation.Seg.String() != "global" {
		t.Errorf("violation segment = %v, want global", res.Violation.Seg)
	}
}

func TestStackUseAfterScopeViaHelper(t *testing.T) {
	// helper() returns the address of its local buffer; main dereferences
	// the dangling pointer -> use-after-scope caught by epilogue release.
	pb := prog.NewProgram()
	h := pb.Function("helper", 0)
	local := h.Alloca(prog.ArrayOf(prog.Char(), 16))
	h.Libc("memset", local, h.Const(0), h.Const(16)) // make it unsafe/tracked
	h.Ret(local)
	f := pb.Function("main", 0)
	dangling := f.Call("helper")
	f.Store(dangling, 0, f.Const(1), prog.Char())
	f.RetVoid()
	built := pb.MustBuild()

	res := runCECSan(t, built, cecsanOpts())
	if res.Violation == nil {
		t.Fatalf("use-after-scope not detected: %+v", res)
	}
	if res.Violation.Kind != rt.KindUseAfterFree {
		t.Errorf("kind = %v, want use-after-free (scope)", res.Violation.Kind)
	}
}

func TestExternalCallCompatEndToEnd(t *testing.T) {
	// Tagged pointer passed to external code, returned (retIsArg0),
	// re-tagged, then used and overflowed: the overflow must still be
	// caught after the round trip, proving tags survive the §II.E wrapper.
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	b := f.MallocBytes(32)
	same := f.CallExternal("ext_identity", true, b)
	f.Store(same, 0, f.Const(1), prog.Char())  // legal
	f.Store(same, 32, f.Const(1), prog.Char()) // overflow
	f.RetVoid()
	built := pb.MustBuild()
	res := runCECSan(t, built, cecsanOpts())
	if res.Violation == nil || res.Fault != nil {
		t.Fatalf("overflow after external round trip not detected: %+v", res)
	}
}

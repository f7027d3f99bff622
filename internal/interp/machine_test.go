package interp

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cecsan/internal/alloc"
	"cecsan/internal/sanitizers/nosan"
	"cecsan/prog"
)

// runNative builds and runs a program under the uninstrumented baseline.
func runNative(t *testing.T, pb *prog.ProgramBuilder) *Result {
	t.Helper()
	p, err := pb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	m, err := New(p, nosan.Sanitizer(), DefaultOptions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m.Run()
}

func TestArithmeticAndReturn(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	a := f.Const(6)
	b := f.Const(7)
	f.Ret(f.Mul(a, b))
	res := runNative(t, pb)
	if !res.Ok() {
		t.Fatalf("run failed: %+v", res)
	}
	if res.Ret != 42 {
		t.Fatalf("Ret = %d, want 42", res.Ret)
	}
}

func TestAllBinaryOps(t *testing.T) {
	tests := []struct {
		op   prog.BinOp
		a, b int64
		want uint64
	}{
		{prog.BinAdd, 5, 3, 8},
		{prog.BinSub, 5, 3, 2},
		{prog.BinMul, 5, 3, 15},
		{prog.BinDiv, -15, 4, ^uint64(2)},
		{prog.BinRem, -15, 4, ^uint64(2)},
		{prog.BinAnd, 0b1100, 0b1010, 0b1000},
		{prog.BinOr, 0b1100, 0b1010, 0b1110},
		{prog.BinXor, 0b1100, 0b1010, 0b0110},
		{prog.BinShl, 3, 4, 48},
		{prog.BinShr, 48, 4, 3},
	}
	for _, tt := range tests {
		pb := prog.NewProgram()
		f := pb.Function("main", 0)
		f.Ret(f.Bin(tt.op, f.Const(tt.a), f.Const(tt.b)))
		res := runNative(t, pb)
		if !res.Ok() || res.Ret != tt.want {
			t.Errorf("op %d: Ret = %d (ok=%v), want %d", tt.op, res.Ret, res.Ok(), tt.want)
		}
	}
}

func TestDivisionByZeroFaults(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	f.Ret(f.Bin(prog.BinDiv, f.Const(1), f.Const(0)))
	res := runNative(t, pb)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "SIGFPE") {
		t.Fatalf("expected SIGFPE, got %+v", res)
	}
}

func TestComparisonPredicates(t *testing.T) {
	tests := []struct {
		pred prog.CmpPred
		a, b int64
		want uint64
	}{
		{prog.CmpEq, 3, 3, 1},
		{prog.CmpNe, 3, 3, 0},
		{prog.CmpSLt, -1, 1, 1},
		{prog.CmpULt, -1, 1, 0}, // -1 is huge unsigned
		{prog.CmpSGe, 5, 5, 1},
		{prog.CmpUGt, -1, 1, 1},
		{prog.CmpSLe, 4, 3, 0},
		{prog.CmpUGe, 0, 0, 1},
		{prog.CmpSGt, 1, 2, 0},
		{prog.CmpULe, 2, 2, 1},
	}
	for _, tt := range tests {
		pb := prog.NewProgram()
		f := pb.Function("main", 0)
		f.Ret(f.Cmp(tt.pred, f.Const(tt.a), f.Const(tt.b)))
		res := runNative(t, pb)
		if res.Ret != tt.want {
			t.Errorf("pred %d (%d,%d): got %d, want %d", tt.pred, tt.a, tt.b, res.Ret, tt.want)
		}
	}
}

func TestIfBothBranches(t *testing.T) {
	for _, cond := range []int64{0, 1} {
		pb := prog.NewProgram()
		f := pb.Function("main", 0)
		out := f.NewReg()
		f.If(f.Const(cond),
			func() { f.AssignConst(out, 111) },
			func() { f.AssignConst(out, 222) },
		)
		f.Ret(out)
		res := runNative(t, pb)
		want := uint64(222)
		if cond != 0 {
			want = 111
		}
		if res.Ret != want {
			t.Errorf("cond=%d: Ret = %d, want %d", cond, res.Ret, want)
		}
	}
}

func TestForRangeSum(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	sum := f.NewReg()
	f.AssignConst(sum, 0)
	f.ForRange(prog.ConstOperand(0), prog.ConstOperand(101), 1, func(i prog.Reg) {
		f.Assign(sum, f.Add(sum, i))
	})
	f.Ret(sum)
	res := runNative(t, pb)
	if res.Ret != 5050 {
		t.Fatalf("sum 0..100 = %d, want 5050", res.Ret)
	}
}

func TestDescendingLoop(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	count := f.NewReg()
	f.AssignConst(count, 0)
	f.ForRange(prog.ConstOperand(10), prog.ConstOperand(0), -2, func(i prog.Reg) {
		f.Assign(count, f.AddImm(count, 1))
	})
	f.Ret(count)
	res := runNative(t, pb)
	if res.Ret != 5 { // 10,8,6,4,2
		t.Fatalf("iterations = %d, want 5", res.Ret)
	}
}

func TestWhileLoop(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	n := f.NewReg()
	f.AssignConst(n, 1)
	f.While(
		func() prog.Reg { return f.Cmp(prog.CmpSLt, n, f.Const(1000)) },
		func() { f.Assign(n, f.Mul(n, f.Const(2))) },
	)
	f.Ret(n)
	res := runNative(t, pb)
	if res.Ret != 1024 {
		t.Fatalf("Ret = %d, want 1024", res.Ret)
	}
}

func TestMemoryLoadStore(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	buf := f.MallocType(prog.ArrayOf(prog.Int64T(), 4))
	f.Store(buf, 24, f.Const(0xDEAD), prog.Int64T())
	v := f.Load(buf, 24, prog.Int64T())
	f.Free(buf)
	f.Ret(v)
	res := runNative(t, pb)
	if !res.Ok() || res.Ret != 0xDEAD {
		t.Fatalf("Ret = %#x (res=%+v), want 0xdead", res.Ret, res)
	}
	if res.Stats.Mallocs != 1 || res.Stats.Frees != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestAllocaAndFieldAccess(t *testing.T) {
	st := prog.StructOf("S",
		prog.FieldSpec{Name: "a", Type: prog.Int()},
		prog.FieldSpec{Name: "b", Type: prog.Int64T()},
	)
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	s := f.Alloca(st)
	fb := f.FieldPtr(s, st, "b")
	f.Store(fb, 0, f.Const(77), prog.Int64T())
	f.Ret(f.Load(s, 8, prog.Int64T())) // field b is at offset 8
	res := runNative(t, pb)
	if res.Ret != 77 {
		t.Fatalf("Ret = %d, want 77", res.Ret)
	}
}

func TestFunctionCallsAndRecursion(t *testing.T) {
	pb := prog.NewProgram()
	fib := pb.Function("fib", 1)
	n := fib.Arg(0)
	fib.If(fib.Cmp(prog.CmpSLt, n, fib.Const(2)),
		func() { fib.Ret(n) },
		func() {
			a := fib.Call("fib", fib.Sub(n, fib.Const(1)))
			b := fib.Call("fib", fib.Sub(n, fib.Const(2)))
			fib.Ret(fib.Add(a, b))
		},
	)
	f := pb.Function("main", 0)
	f.Ret(f.Call("fib", f.Const(15)))
	res := runNative(t, pb)
	if res.Ret != 610 {
		t.Fatalf("fib(15) = %d, want 610", res.Ret)
	}
}

func TestCallDepthLimit(t *testing.T) {
	pb := prog.NewProgram()
	loop := pb.Function("spin", 1)
	loop.Ret(loop.Call("spin", loop.Arg(0)))
	f := pb.Function("main", 0)
	f.Ret(f.Call("spin", f.Const(0)))
	res := runNative(t, pb)
	if !errors.Is(res.Err, ErrCallDepth) {
		t.Fatalf("err = %v, want ErrCallDepth", res.Err)
	}
}

func TestInstructionBudget(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	f.While(func() prog.Reg { return f.Const(1) }, func() {})
	p := pb.MustBuild()
	opts := DefaultOptions()
	opts.MaxInstructions = 10000
	m, err := New(p, nosan.Sanitizer(), opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := m.Run()
	if !errors.Is(res.Err, ErrInstructionBudget) {
		t.Fatalf("err = %v, want ErrInstructionBudget", res.Err)
	}
}

func TestGlobalsInitAndAccess(t *testing.T) {
	pb := prog.NewProgram()
	pb.GlobalInit("flag", prog.Int(), 5)
	pb.GlobalBytes("msg", []byte("hi"))
	f := pb.Function("main", 0)
	g := f.GlobalAddr("flag")
	v := f.Load(g, 0, prog.Int())
	s := f.GlobalAddr("msg")
	c := f.Load(s, 1, prog.Char())
	f.Ret(f.Add(v, c)) // 5 + 'i'
	res := runNative(t, pb)
	if res.Ret != 5+'i' {
		t.Fatalf("Ret = %d, want %d", res.Ret, 5+'i')
	}
}

func TestLibcMemcpyAndStrlen(t *testing.T) {
	pb := prog.NewProgram()
	pb.GlobalBytes("src", []byte("hello"))
	f := pb.Function("main", 0)
	dst := f.MallocBytes(16)
	src := f.GlobalAddr("src")
	f.Libc("memcpy", dst, src, f.Const(6))
	f.Ret(f.Libc("strlen", dst))
	res := runNative(t, pb)
	if !res.Ok() || res.Ret != 5 {
		t.Fatalf("strlen = %d (res=%+v), want 5", res.Ret, res)
	}
}

func TestLibcStringFamily(t *testing.T) {
	pb := prog.NewProgram()
	pb.GlobalBytes("src", []byte("abc"))
	f := pb.Function("main", 0)
	src := f.GlobalAddr("src")
	d1 := f.MallocBytes(16)
	f.Libc("strcpy", d1, src)
	d2 := f.MallocBytes(16)
	f.Libc("strncpy", d2, d1, f.Const(8))
	f.Libc("strcat", d2, src)
	f.Ret(f.Libc("strlen", d2)) // "abcabc" -> 6
	res := runNative(t, pb)
	if !res.Ok() || res.Ret != 6 {
		t.Fatalf("Ret = %d (res=%+v), want 6", res.Ret, res)
	}
}

func TestLibcWideFamily(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	a := f.MallocType(prog.ArrayOf(prog.WChar(), 8))
	b := f.MallocType(prog.ArrayOf(prog.WChar(), 8))
	f.Libc("wmemset", a, f.Const('W'), f.Const(7)) // 7 wide chars + NUL terminator
	f.Libc("wcsncpy", b, a, f.Const(8))
	f.Ret(f.Libc("wcslen", b))
	res := runNative(t, pb)
	if !res.Ok() || res.Ret != 7 {
		t.Fatalf("wcslen = %d (res=%+v), want 7", res.Ret, res)
	}
}

func TestInputFeedFgets(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	buf := f.MallocBytes(32)
	n := f.Libc("fgets", buf, f.Const(32))
	f.Ret(n)
	p := pb.MustBuild()
	m, err := New(p, nosan.Sanitizer(), DefaultOptions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m.Feed([]byte("external-input"))
	res := m.Run()
	if res.Ret != 14 {
		t.Fatalf("fgets returned %d, want 14", res.Ret)
	}
	// Without input, fgets returns 0.
	m2, _ := New(p, nosan.Sanitizer(), DefaultOptions())
	if got := m2.Run().Ret; got != 0 {
		t.Fatalf("fgets with empty feed = %d, want 0", got)
	}
}

func TestFgetsTruncatesToBuffer(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	buf := f.MallocBytes(8)
	f.Ret(f.Libc("fgets", buf, f.Const(8)))
	p := pb.MustBuild()
	m, _ := New(p, nosan.Sanitizer(), DefaultOptions())
	m.Feed([]byte("0123456789ABCDEF"))
	res := m.Run()
	if res.Ret != 7 { // 8-byte buffer: 7 chars + NUL
		t.Fatalf("fgets wrote %d, want 7", res.Ret)
	}
}

func TestPrintOutput(t *testing.T) {
	pb := prog.NewProgram()
	pb.GlobalBytes("msg", []byte("hello world"))
	f := pb.Function("main", 0)
	f.Libc("print_int", f.Const(42))
	f.Libc("print_str", f.GlobalAddr("msg"))
	f.RetVoid()
	p := pb.MustBuild()
	m, _ := New(p, nosan.Sanitizer(), DefaultOptions())
	if res := m.Run(); !res.Ok() {
		t.Fatalf("run failed: %+v", res)
	}
	out := m.Output()
	if len(out) != 2 || out[0] != "42" || out[1] != "hello world" {
		t.Fatalf("output = %q", out)
	}
}

func TestRandIsDeterministicPerSeed(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	f.Ret(f.Libc("rand"))
	p := pb.MustBuild()
	opts := DefaultOptions()
	opts.Seed = 7
	m1, _ := New(p, nosan.Sanitizer(), opts)
	m2, _ := New(p, nosan.Sanitizer(), opts)
	if a, b := m1.Run().Ret, m2.Run().Ret; a != b {
		t.Fatalf("same seed diverged: %d vs %d", a, b)
	}
	opts.Seed = 8
	m3, _ := New(p, nosan.Sanitizer(), opts)
	if a, c := m1.Run().Ret, m3.Run().Ret; a == c {
		t.Fatalf("different seeds collided: %d", a)
	}
}

func TestExternalCallIdentityAndFill(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	buf := f.MallocBytes(16)
	same := f.CallExternal("ext_identity", true, buf)
	f.CallExternal("ext_fill", false, same, f.Const(16), f.Const(0x5A))
	f.Ret(f.Load(same, 15, prog.Char()))
	res := runNative(t, pb)
	if !res.Ok() || res.Ret != 0x5A {
		t.Fatalf("Ret = %#x (res=%+v), want 0x5a", res.Ret, res)
	}
	if res.Stats.ExternCalls != 2 {
		t.Fatalf("ExternCalls = %d, want 2", res.Stats.ExternCalls)
	}
}

func TestExternalAllocFreeRoundTrip(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	p := f.CallExternal("ext_alloc", false, f.Const(64))
	f.Store(p, 0, f.Const(9), prog.Int64T())
	v := f.Load(p, 0, prog.Int64T())
	f.CallExternal("ext_free", false, p)
	f.Ret(v)
	res := runNative(t, pb)
	if !res.Ok() || res.Ret != 9 {
		t.Fatalf("res = %+v", res)
	}
}

func TestUnknownSymbolsError(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	f.Libc("no_such_libc")
	f.RetVoid()
	res := runNative(t, pb)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "unknown libc") {
		t.Fatalf("err = %v", res.Err)
	}

	pb2 := prog.NewProgram()
	f2 := pb2.Function("main", 0)
	f2.CallExternal("no_such_ext", false)
	f2.RetVoid()
	res2 := runNative(t, pb2)
	if res2.Err == nil || !strings.Contains(res2.Err.Error(), "unknown external") {
		t.Fatalf("err = %v", res2.Err)
	}
}

func TestParForComputesInParallel(t *testing.T) {
	pb := prog.NewProgram()
	pb.Global("results", prog.ArrayOf(prog.Int64T(), 64))
	w := pb.Function("worker", 1)
	i := w.Arg(0)
	slot := w.ElemPtr(w.GlobalAddr("results"), prog.Int64T(), i)
	w.Store(slot, 0, w.Mul(i, i), prog.Int64T())
	w.RetVoid()
	f := pb.Function("main", 0)
	f.ParFor("worker", f.Const(0), f.Const(64), 4)
	sum := f.NewReg()
	f.AssignConst(sum, 0)
	g := f.GlobalAddr("results")
	f.ForRange(prog.ConstOperand(0), prog.ConstOperand(64), 1, func(i prog.Reg) {
		f.Assign(sum, f.Add(sum, f.Load(f.ElemPtr(g, prog.Int64T(), i), 0, prog.Int64T())))
	})
	f.Ret(sum)
	res := runNative(t, pb)
	want := uint64(0)
	for i := 0; i < 64; i++ {
		want += uint64(i * i)
	}
	if !res.Ok() || res.Ret != want {
		t.Fatalf("parallel sum = %d (res=%+v), want %d", res.Ret, res, want)
	}
}

func TestStatsAndRSSAccounting(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	f.ForRange(prog.ConstOperand(0), prog.ConstOperand(100), 1, func(i prog.Reg) {
		p := f.MallocBytes(1 << 16) // one chunk each
		f.Store(p, 0, i, prog.Int64T())
		f.Free(p)
	})
	f.RetVoid()
	res := runNative(t, pb)
	if !res.Ok() {
		t.Fatalf("res = %+v", res)
	}
	if res.Stats.Mallocs != 100 || res.Stats.Frees != 100 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if res.Stats.Instructions == 0 {
		t.Fatal("instruction count not recorded")
	}
	// Freed chunks are reused, so the footprint must stay near one chunk,
	// not 100.
	if res.Stats.PeakProgramBytes > 1<<20 {
		t.Fatalf("PeakProgramBytes = %d, want < 1MiB (allocator reuse)", res.Stats.PeakProgramBytes)
	}
	if res.Stats.PeakRSS < res.Stats.PeakProgramBytes {
		t.Fatal("PeakRSS < PeakProgramBytes")
	}
}

func TestWildPointerDereferenceFaults(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	bad := f.Const(int64(uint64(3) << 47)) // tagged-looking wild pointer
	f.Ret(f.Load(bad, 0, prog.Int64T()))
	res := runNative(t, pb)
	if res.Fault == nil {
		t.Fatalf("expected machine fault, got %+v", res)
	}
}

func TestParForStatsMergeExactly(t *testing.T) {
	// Every parfor worker thread allocates, stores, loads and frees, so the
	// per-thread counters merge concurrently at thread exit. The totals must
	// be exact regardless of scheduling; run under -race this also exercises
	// the atomic merge path.
	const iters = 64
	pb := prog.NewProgram()
	w := pb.Function("worker", 1)
	i := w.Arg(0)
	buf := w.MallocBytes(32)
	w.Store(buf, 0, i, prog.Int64T())
	w.Load(buf, 0, prog.Int64T())
	w.Free(buf)
	w.RetVoid()
	f := pb.Function("main", 0)
	f.ParFor("worker", f.Const(0), f.Const(iters), 8)
	f.RetVoid()
	p, err := pb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	run := func() *Result {
		m, err := New(p, nosan.Sanitizer(), DefaultOptions())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return m.Run()
	}
	res := run()
	if !res.Ok() {
		t.Fatalf("run failed: %+v", res)
	}
	if res.Stats.Mallocs != iters || res.Stats.Frees != iters {
		t.Fatalf("Mallocs/Frees = %d/%d, want %d/%d",
			res.Stats.Mallocs, res.Stats.Frees, iters, iters)
	}
	// Instruction totals are deterministic even under parallel scheduling.
	again := run()
	if res.Stats.Instructions != again.Stats.Instructions {
		t.Fatalf("instruction count unstable across runs: %d vs %d",
			res.Stats.Instructions, again.Stats.Instructions)
	}
}

func TestNewOnResetReproducesFreshRun(t *testing.T) {
	// A machine on recycled (Reset) resources must behave byte-identically
	// to one on fresh resources: same return value, same stats, same RSS
	// high-water marks, and the same heap addresses handed out.
	pb := prog.NewProgram()
	pb.GlobalBytes("msg", []byte("pool"))
	f := pb.Function("main", 0)
	buf := f.MallocBytes(4096)
	f.Store(buf, 0, f.Load(f.GlobalAddr("msg"), 0, prog.Char()), prog.Char())
	v := f.Load(buf, 0, prog.Int64T())
	f.Free(buf)
	f.Ret(v)
	p, err := pb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	opts := DefaultOptions()

	fresh, err := New(p, nosan.Sanitizer(), opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want := fresh.Run()

	res, err := NewResources(opts.AddrBits)
	if err != nil {
		t.Fatalf("NewResources: %v", err)
	}
	for round := 0; round < 3; round++ {
		m, err := NewOn(res, p, nosan.Sanitizer(), opts)
		if err != nil {
			t.Fatalf("NewOn round %d: %v", round, err)
		}
		got := m.Run()
		if got.Ret != want.Ret || got.Stats != want.Stats {
			t.Fatalf("round %d diverged from fresh run:\n got %+v\nwant %+v", round, got, want)
		}
		res.Reset()
	}

	// Mismatched address widths must be rejected rather than silently
	// producing wrong tagging semantics.
	narrow := opts
	narrow.AddrBits = 48
	if _, err := NewOn(res, p, nosan.Sanitizer(), narrow); err == nil {
		t.Fatal("NewOn accepted a 47-bit space for 48-bit options")
	}
}

// TestPooledResourcesGlobalTableIsolation pins the slot-pooling contract of
// Resources: the Global Pointer Table slices live on the bundle and are
// recycled across machines, so a machine built on freshly Reset resources
// must see exactly its own program's globals — never stale slots from the
// previous occupant.
func TestPooledResourcesGlobalTableIsolation(t *testing.T) {
	pb1 := prog.NewProgram()
	pb1.GlobalInit("shared_name", prog.Int(), 10)
	pb1.GlobalInit("only_in_p1", prog.Int(), 11)
	f1 := pb1.Function("main", 0)
	f1.Ret(f1.Load(f1.GlobalAddr("only_in_p1"), 0, prog.Int()))
	p1 := pb1.MustBuild()

	pb2 := prog.NewProgram()
	pb2.GlobalInit("only_in_p2", prog.Int(), 22)
	f2 := pb2.Function("main", 0)
	f2.Ret(f2.Load(f2.GlobalAddr("only_in_p2"), 0, prog.Int()))
	p2 := pb2.MustBuild()

	res, err := NewResources(47)
	if err != nil {
		t.Fatalf("NewResources: %v", err)
	}
	m1, err := NewOn(res, p1, nosan.Sanitizer(), DefaultOptions())
	if err != nil {
		t.Fatalf("NewOn p1: %v", err)
	}
	if got := m1.Run(); got.Ret != 11 {
		t.Fatalf("p1 Ret = %d, want 11", got.Ret)
	}
	res.Reset()
	m2, err := NewOn(res, p2, nosan.Sanitizer(), DefaultOptions())
	if err != nil {
		t.Fatalf("NewOn p2: %v", err)
	}
	fresh, err := New(p2, nosan.Sanitizer(), DefaultOptions())
	if err != nil {
		t.Fatalf("New p2: %v", err)
	}
	// p1's second slot ("only_in_p1") must not survive as a stale entry,
	// and p2's single slot must hold p2's own pointer.
	if len(m2.gptPtr) != len(p2.Globals) || len(m2.gptMeta) != len(p2.Globals) {
		t.Fatalf("GPT has %d/%d slots, want %d: stale slot from the previous pooled machine",
			len(m2.gptPtr), len(m2.gptMeta), len(p2.Globals))
	}
	if m2.gptPtr[0] != fresh.gptPtr[0] || m2.gptMeta[0] != fresh.gptMeta[0] {
		t.Fatalf("pooled GPT slot 0 = %#x, fresh = %#x", m2.gptPtr[0], fresh.gptPtr[0])
	}
	if got := m2.Run(); got.Ret != 22 {
		t.Fatalf("p2 Ret = %d, want 22", got.Ret)
	}
}

// callHeavyProgram builds a program whose main makes calls calls to a
// one-argument function that reads a global through the GPT.
func callHeavyProgram(calls int) *prog.Program {
	pb := prog.NewProgram()
	pb.GlobalInit("step", prog.Int64T(), 3)
	bump := pb.Function("bump", 1)
	bump.Ret(bump.Add(bump.Arg(0), bump.Load(bump.GlobalAddr("step"), 0, prog.Int64T())))
	f := pb.Function("main", 0)
	acc := f.NewReg()
	f.AssignConst(acc, 0)
	f.ForRange(prog.ConstOperand(0), prog.ConstOperand(int64(calls)), 1, func(prog.Reg) {
		f.Assign(acc, f.Call("bump", acc))
	})
	f.Ret(acc)
	return pb.MustBuild()
}

// TestPooledRunAllocationsIndependentOfCalls pins the pre-resolved call
// path: on a warmed pooled bundle a run's allocations are a fixed per-run
// cost, so a program making 1,000 calls allocates exactly as much as one
// making 10 — no per-call argument slices, no per-run register arena.
func TestPooledRunAllocationsIndependentOfCalls(t *testing.T) {
	allocs := func(calls int) float64 {
		p := callHeavyProgram(calls)
		res, err := NewResources(47)
		if err != nil {
			t.Fatalf("NewResources: %v", err)
		}
		opts := DefaultOptions()
		run := func() {
			m, err := NewOn(res, p, nosan.Sanitizer(), opts)
			if err != nil {
				t.Fatalf("NewOn: %v", err)
			}
			if got := m.Run(); !got.Ok() || got.Ret != uint64(3*calls) {
				t.Fatalf("%d calls: Ret = %d (%+v), want %d", calls, got.Ret, got, 3*calls)
			}
			res.Reset()
		}
		run() // warm: link the program, grow the pooled arenas and GPT
		return testing.AllocsPerRun(20, run)
	}
	few, many := allocs(10), allocs(1000)
	if few != many {
		t.Fatalf("allocs per pooled run: %v with 10 calls, %v with 1000 calls; want equal", few, many)
	}
}

// verdict renders a result's outcome for equality checks.
func verdict(r *Result) string {
	return fmt.Sprintf("violation=%v fault=%v err=%v", r.Violation, r.Fault, r.Err)
}

// TestPooledRunMatchesFresh runs program A, then program B — a different
// global set and different frame sizes — on the same reset bundle. B must
// behave exactly as on fresh resources: the GPT slots, the recycled (and
// grown, dirty) register arena and the lock-free RSS gauges may not leak
// anything from A into B's return value, verdict or full Stats.
func TestPooledRunMatchesFresh(t *testing.T) {
	pa := prog.NewProgram()
	for i := 0; i < 5; i++ {
		pa.GlobalInit(fmt.Sprintf("a%d", i), prog.Int64T(), int64(100+i))
	}
	deep := pa.Function("deep", 1)
	n := deep.Arg(0)
	wide := deep.Const(0)
	for k := 1; k <= 20; k++ { // a wide frame full of nonzero registers
		wide = deep.Add(wide, deep.Const(int64(k)))
	}
	deep.If(deep.Cmp(prog.CmpEq, n, deep.Const(0)), func() {
		deep.Ret(wide)
	}, func() {
		deep.Ret(deep.Add(wide, deep.Call("deep", deep.Sub(n, deep.Const(1)))))
	})
	fa := pa.Function("main", 0)
	buf := fa.MallocBytes(256)
	fa.Free(buf)
	fa.Ret(fa.Add(fa.Call("deep", fa.Const(50)), fa.Load(fa.GlobalAddr("a3"), 0, prog.Int64T())))
	progA := pa.MustBuild()

	pb := prog.NewProgram()
	pb.GlobalInit("b0", prog.Int64T(), 5)
	pb.GlobalBytes("b1", []byte("fresh"))
	leaf := pb.Function("leaf", 2)
	unset := leaf.NewReg() // never written: reads the window's zero
	sum := leaf.Add(leaf.Add(leaf.Arg(0), leaf.Arg(1)), unset)
	leaf.Ret(leaf.Add(sum, leaf.Load(leaf.GlobalAddr("b0"), 0, prog.Int64T())))
	fb := pb.Function("main", 0)
	acc := fb.NewReg()
	fb.AssignConst(acc, 0)
	fb.ForRange(prog.ConstOperand(0), prog.ConstOperand(20), 1, func(i prog.Reg) {
		fb.Assign(acc, fb.Call("leaf", acc, i))
	})
	heap := fb.MallocBytes(64)
	fb.Store(heap, 0, fb.Load(fb.GlobalAddr("b1"), 0, prog.Char()), prog.Char())
	fb.Free(heap)
	fb.Ret(acc)
	progB := pb.MustBuild()

	opts := DefaultOptions()
	freshM, err := New(progB, nosan.Sanitizer(), opts)
	if err != nil {
		t.Fatalf("New B: %v", err)
	}
	want := freshM.Run()
	if !want.Ok() || want.Ret != 20*5+190 {
		t.Fatalf("fresh B: Ret = %d (%+v), want %d", want.Ret, want, 20*5+190)
	}

	res, err := NewResources(opts.AddrBits)
	if err != nil {
		t.Fatalf("NewResources: %v", err)
	}
	ma, err := NewOn(res, progA, nosan.Sanitizer(), opts)
	if err != nil {
		t.Fatalf("NewOn A: %v", err)
	}
	if got := ma.Run(); !got.Ok() || got.Ret != 51*210+103 {
		t.Fatalf("A: Ret = %d (%+v), want %d", got.Ret, got, 51*210+103)
	}
	res.Reset()
	mb, err := NewOn(res, progB, nosan.Sanitizer(), opts)
	if err != nil {
		t.Fatalf("NewOn B: %v", err)
	}
	got := mb.Run()
	if got.Ret != want.Ret || verdict(got) != verdict(want) || got.Stats != want.Stats {
		t.Fatalf("pooled B diverged from fresh B:\n got Ret=%d %s %+v\nwant Ret=%d %s %+v",
			got.Ret, verdict(got), got.Stats, want.Ret, verdict(want), want.Stats)
	}
}

// BenchmarkNewOnPooled measures the pooled machine-construction path the
// engine pays once per case: Reset plus NewOn on a recycled bundle, for a
// program with a realistic global count. The pooled GPT slices keep this
// allocation-flat in the number of globals.
func BenchmarkNewOnPooled(b *testing.B) {
	pb := prog.NewProgram()
	for i := 0; i < 16; i++ {
		pb.GlobalInit(fmt.Sprintf("g%d", i), prog.Int(), int64(i))
	}
	f := pb.Function("main", 0)
	f.Ret(f.Const(0))
	p := pb.MustBuild()
	res, err := NewResources(47)
	if err != nil {
		b.Fatalf("NewResources: %v", err)
	}
	opts := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewOn(res, p, nosan.Sanitizer(), opts)
		if err != nil {
			b.Fatalf("NewOn: %v", err)
		}
		_ = m
		res.Reset()
	}
}

// BenchmarkInterpCall measures interpreter dispatch on a call-heavy
// program (1,000 calls, each reading a global through the GPT) on a pooled
// bundle: NewOn, Run and Reset per iteration, as the engine runs a case.
func BenchmarkInterpCall(b *testing.B) {
	p := callHeavyProgram(1000)
	res, err := NewResources(47)
	if err != nil {
		b.Fatalf("NewResources: %v", err)
	}
	opts := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewOn(res, p, nosan.Sanitizer(), opts)
		if err != nil {
			b.Fatalf("NewOn: %v", err)
		}
		if got := m.Run(); !got.Ok() {
			b.Fatalf("run failed: %+v", got)
		}
		res.Reset()
	}
}

// nestedParForProgram has outer workers keep their index in a stack slot
// across an inner parallel region whose workers write their own stack
// slots, then publish the slot's value in results[i]. main returns
// sum(results[i] << 8i), 0x03020100 when every slot survived.
func nestedParForProgram() *prog.Program {
	pb := prog.NewProgram()
	pb.Global("results", prog.ArrayOf(prog.Int64T(), 4))
	in := pb.Function("inner", 1)
	in.Store(in.Alloca(prog.Int64T()), 0, in.AddImm(in.Arg(0), 1000), prog.Int64T())
	in.RetVoid()
	out := pb.Function("outer", 1)
	slot := out.Alloca(prog.Int64T())
	out.Store(slot, 0, out.Arg(0), prog.Int64T())
	out.ParFor("inner", out.Const(0), out.Const(4), 4)
	out.Store(out.ElemPtr(out.GlobalAddr("results"), prog.Int64T(), out.Arg(0)), 0, out.Load(slot, 0, prog.Int64T()), prog.Int64T())
	out.RetVoid()
	f := pb.Function("main", 0)
	f.ParFor("outer", f.Const(0), f.Const(4), 4)
	sum := f.NewReg()
	f.AssignConst(sum, 0)
	g := f.GlobalAddr("results")
	for i := int64(0); i < 4; i++ {
		v := f.Load(f.ElemPtr(g, prog.Int64T(), f.Const(i)), 0, prog.Int64T())
		f.Assign(sum, f.Add(sum, f.Mul(v, f.Const(1<<(8*i)))))
	}
	f.Ret(sum)
	return pb.MustBuild()
}

// TestNestedParForStacksDisjoint pins that an inner parallel region's
// workers never reuse the stack of a thread that is still running: every
// outer worker's stack slot must survive its inner region.
func TestNestedParForStacksDisjoint(t *testing.T) {
	p := nestedParForProgram()
	for i := 0; i < 20; i++ {
		m, err := New(p, nosan.Sanitizer(), DefaultOptions())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if res := m.Run(); !res.Ok() || res.Ret != 0x03020100 {
			t.Fatalf("run %d: ret %#x (%+v), want 0x03020100", i, res.Ret, res)
		}
	}
}

// TestParForThreadLimit pins the validator's parfor bound to the stack
// region: the largest thread count it accepts runs (every worker gets a
// stack), and one more is refused when the program is built.
func TestParForThreadLimit(t *testing.T) {
	build := func(threads int) (*prog.Program, error) {
		pb := prog.NewProgram()
		pb.Global("results", prog.ArrayOf(prog.Int64T(), 64))
		w := pb.Function("worker", 1)
		w.Store(w.ElemPtr(w.GlobalAddr("results"), prog.Int64T(), w.Arg(0)), 0, w.Arg(0), prog.Int64T())
		w.RetVoid()
		f := pb.Function("main", 0)
		f.ParFor("worker", f.Const(0), f.Const(64), threads)
		f.Ret(f.Load(f.ElemPtr(f.GlobalAddr("results"), prog.Int64T(), f.Const(63)), 0, prog.Int64T()))
		return pb.Build()
	}
	most := alloc.MaxThreads - 1 // thread id 0 is the main thread's
	p, err := build(most)
	if err != nil {
		t.Fatalf("%d threads refused: %v", most, err)
	}
	m, err := New(p, nosan.Sanitizer(), DefaultOptions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if res := m.Run(); !res.Ok() || res.Ret != 63 {
		t.Fatalf("%d-thread parfor: ret %d (%+v), want 63", most, res.Ret, res)
	}
	if _, err := build(most + 1); err == nil {
		t.Fatalf("%d threads accepted; the stack region holds %d threads", most+1, alloc.MaxThreads)
	}
}

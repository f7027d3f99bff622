package prog

import (
	"strings"
	"testing"
)

func TestBuildMinimalProgram(t *testing.T) {
	pb := NewProgram()
	f := pb.Function("main", 0)
	f.Ret(f.Const(0))
	p, err := pb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if p.Entry != "main" || len(p.Funcs) != 1 {
		t.Fatalf("program = %+v", p)
	}
}

func TestBuildAddsImplicitReturn(t *testing.T) {
	pb := NewProgram()
	f := pb.Function("main", 0)
	f.Const(1) // no explicit terminator
	p, err := pb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	code := p.Func("main").Code
	if code[len(code)-1].Op != OpRet {
		t.Fatal("missing implicit RetVoid")
	}
}

func TestIfShape(t *testing.T) {
	pb := NewProgram()
	f := pb.Function("main", 0)
	c := f.Const(1)
	var thenIdx, elseIdx int
	f.If(c,
		func() { thenIdx = f.pc(); f.Const(100) },
		func() { elseIdx = f.pc(); f.Const(200) },
	)
	f.RetVoid()
	p := pb.MustBuild()
	code := p.Func("main").Code

	// Find the CondBr and check it targets the then-block.
	var condbr *Instr
	for i := range code {
		if code[i].Op == OpCondBr {
			condbr = &code[i]
			break
		}
	}
	if condbr == nil {
		t.Fatal("no CondBr emitted")
	}
	if condbr.Imm != int64(thenIdx) {
		t.Errorf("CondBr targets @%d, want then-block @%d", condbr.Imm, thenIdx)
	}
	if elseIdx >= thenIdx {
		t.Errorf("else block (@%d) should precede then block (@%d) in layout", elseIdx, thenIdx)
	}
}

func TestForRangeRecordsLoopFacts(t *testing.T) {
	pb := NewProgram()
	f := pb.Function("main", 0)
	buf := f.Alloca(ArrayOf(Int(), 10))
	f.ForRange(ConstOperand(0), ConstOperand(10), 1, func(i Reg) {
		p := f.ElemPtr(buf, Int(), i)
		f.Store(p, 0, i, Int())
	})
	f.RetVoid()
	p := pb.MustBuild()
	fn := p.Func("main")

	if len(fn.Loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(fn.Loops))
	}
	l := fn.Loops[0]
	if !l.Start.IsConst || l.Start.Const != 0 {
		t.Errorf("loop start = %+v, want const 0", l.Start)
	}
	if !l.Limit.IsConst || l.Limit.Const != 10 {
		t.Errorf("loop limit = %+v, want const 10", l.Limit)
	}
	if l.Step != 1 {
		t.Errorf("loop step = %d, want 1", l.Step)
	}
	if !(l.HeadStart < l.HeadEnd && l.HeadEnd == l.BodyStart && l.BodyStart < l.BodyEnd && l.BodyEnd < l.LatchEnd) {
		t.Errorf("inconsistent loop ranges: %+v", l)
	}
	// The store in the body must sit inside [BodyStart, BodyEnd).
	foundStore := false
	for i := l.BodyStart; i < l.BodyEnd; i++ {
		if fn.Code[i].Op == OpStore {
			foundStore = true
		}
	}
	if !foundStore {
		t.Error("loop body range does not contain the store")
	}
}

func TestNestedLoopsRecordInnerFirst(t *testing.T) {
	pb := NewProgram()
	f := pb.Function("main", 0)
	f.ForRange(ConstOperand(0), ConstOperand(3), 1, func(i Reg) {
		f.ForRange(ConstOperand(0), ConstOperand(5), 1, func(j Reg) {
			f.Add(i, j)
		})
	})
	f.RetVoid()
	p := pb.MustBuild()
	loops := p.Func("main").Loops
	if len(loops) != 2 {
		t.Fatalf("got %d loops, want 2", len(loops))
	}
	inner, outer := loops[0], loops[1]
	if !(outer.BodyStart <= inner.HeadStart && inner.LatchEnd <= outer.BodyEnd) {
		t.Errorf("inner loop %+v not contained in outer body [%d,%d)", inner, outer.BodyStart, outer.BodyEnd)
	}
	if inner.Limit.Const != 5 || outer.Limit.Const != 3 {
		t.Errorf("loop limits scrambled: inner=%v outer=%v", inner.Limit, outer.Limit)
	}
}

func TestDescendingForRange(t *testing.T) {
	pb := NewProgram()
	f := pb.Function("main", 0)
	f.ForRange(ConstOperand(9), ConstOperand(0), -1, func(i Reg) { f.Mov(i) })
	f.RetVoid()
	p := pb.MustBuild()
	l := p.Func("main").Loops[0]
	if l.Step != -1 {
		t.Fatalf("step = %d, want -1", l.Step)
	}
}

func TestFieldPtrFlags(t *testing.T) {
	st := StructOf("CharVoid",
		FieldSpec{"charFirst", ArrayOf(Char(), 16)},
		FieldSpec{"voidSecond", VoidPtr()},
	)
	pb := NewProgram()
	f := pb.Function("main", 0)
	obj := f.MallocType(st)
	fp := f.FieldPtr(obj, st, "voidSecond")
	f.Load(fp, 0, VoidPtr())
	f.RetVoid()
	p := pb.MustBuild()

	var gep *Instr
	for i := range p.Func("main").Code {
		if p.Func("main").Code[i].Op == OpGEP {
			gep = &p.Func("main").Code[i]
		}
	}
	if gep == nil {
		t.Fatal("no GEP emitted")
	}
	if !gep.Has(FlagSubObject) || !gep.Has(FlagStaticSafe) {
		t.Errorf("field GEP flags = %v, want SubObject|StaticSafe", gep.Flags)
	}
	if gep.Off != 16 || gep.Size != 8 {
		t.Errorf("field GEP off=%d size=%d, want 16/8", gep.Off, gep.Size)
	}
}

func TestIndexPtrStaticSafety(t *testing.T) {
	arr := ArrayOf(Char(), 16)
	pb := NewProgram()
	f := pb.Function("main", 0)
	buf := f.Alloca(arr)

	inBounds := f.IndexPtr(buf, arr, f.Const(15))
	outOfBounds := f.IndexPtr(buf, arr, f.Const(16))
	dyn := f.NewReg()
	f.AssignConst(dyn, 3)
	f.AssignConst(dyn, 7) // reassignment clobbers const tracking
	dynamic := f.IndexPtr(buf, arr, dyn)
	_ = inBounds
	_ = outOfBounds
	_ = dynamic
	f.RetVoid()
	p := pb.MustBuild()

	var geps []Instr
	for _, in := range p.Func("main").Code {
		if in.Op == OpGEP {
			geps = append(geps, in)
		}
	}
	if len(geps) != 3 {
		t.Fatalf("got %d GEPs, want 3", len(geps))
	}
	if !geps[0].Has(FlagStaticSafe) {
		t.Error("buf[15] of char[16] should be statically safe (§II.F.2)")
	}
	if geps[1].Has(FlagStaticSafe) {
		t.Error("buf[16] of char[16] must NOT be statically safe")
	}
	if geps[2].Has(FlagStaticSafe) {
		t.Error("dynamically indexed GEP must not be statically safe")
	}
}

func TestPointerLoadsCarryPtrValFlag(t *testing.T) {
	pb := NewProgram()
	f := pb.Function("main", 0)
	pp := f.MallocType(PtrTo(Int()))
	v := f.Load(pp, 0, PtrTo(Int()))
	f.Store(pp, 0, v, PtrTo(Int()))
	iv := f.Load(pp, 0, Int64T())
	_ = iv
	f.RetVoid()
	p := pb.MustBuild()

	var loads, stores []Instr
	for _, in := range p.Func("main").Code {
		switch in.Op {
		case OpLoad:
			loads = append(loads, in)
		case OpStore:
			stores = append(stores, in)
		}
	}
	if !loads[0].Has(FlagPtrVal) {
		t.Error("pointer load missing FlagPtrVal")
	}
	if loads[1].Has(FlagPtrVal) {
		t.Error("integer load has FlagPtrVal")
	}
	if !stores[0].Has(FlagPtrVal) {
		t.Error("pointer store missing FlagPtrVal")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	tests := []struct {
		name  string
		build func() *ProgramBuilder
		want  string
	}{
		{
			name: "missing entry",
			build: func() *ProgramBuilder {
				pb := NewProgram()
				f := pb.Function("helper", 0)
				f.RetVoid()
				return pb
			},
			want: "entry function",
		},
		{
			name: "entry with params",
			build: func() *ProgramBuilder {
				pb := NewProgram()
				f := pb.Function("main", 2)
				f.RetVoid()
				return pb
			},
			want: "no parameters",
		},
		{
			name: "undefined callee",
			build: func() *ProgramBuilder {
				pb := NewProgram()
				f := pb.Function("main", 0)
				f.Call("ghost")
				f.RetVoid()
				return pb
			},
			want: "undefined function",
		},
		{
			name: "arity mismatch",
			build: func() *ProgramBuilder {
				pb := NewProgram()
				g := pb.Function("helper", 2)
				g.RetVoid()
				f := pb.Function("main", 0)
				f.Call("helper", f.Const(1))
				f.RetVoid()
				return pb
			},
			want: "want 2",
		},
		{
			name: "undefined global",
			build: func() *ProgramBuilder {
				pb := NewProgram()
				f := pb.Function("main", 0)
				f.GlobalAddr("nope")
				f.RetVoid()
				return pb
			},
			want: "undefined global",
		},
		{
			name: "duplicate global",
			build: func() *ProgramBuilder {
				pb := NewProgram()
				pb.Global("g", Int())
				pb.Global("g", Int())
				f := pb.Function("main", 0)
				f.RetVoid()
				return pb
			},
			want: "declared twice",
		},
		{
			name: "duplicate function",
			build: func() *ProgramBuilder {
				pb := NewProgram()
				pb.Function("helper", 0).RetVoid()
				pb.Function("helper", 1).RetVoid()
				pb.Function("main", 0).RetVoid()
				return pb
			},
			want: `function "helper" defined twice`,
		},
		{
			name: "ref out of range",
			build: func() *ProgramBuilder {
				pb := NewProgram()
				f := pb.Function("main", 0)
				f.emit(Instr{Op: OpAlloca, Dst: f.NewReg(), Size: 8, Ref: 1, A: NoReg, B: NoReg})
				f.RetVoid()
				return pb
			},
			want: "ref 1 out of range",
		},
		{
			name: "argument list out of range",
			build: func() *ProgramBuilder {
				pb := NewProgram()
				f := pb.Function("main", 0)
				f.Libc("rand")
				f.fn.Code[0].ArgsAt = 2
				f.RetVoid()
				return pb
			},
			want: "argument list at 2 out of range",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tt.build().Build()
			if err == nil {
				t.Fatal("Build succeeded, want error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestValidateRejectsHandAuthoredInstrumentation(t *testing.T) {
	pb := NewProgram()
	f := pb.Function("main", 0)
	r := f.Const(0)
	f.emit(Instr{Op: OpCheckAccess, A: r, Size: 8})
	f.RetVoid()
	if _, err := pb.Build(); err == nil || !strings.Contains(err.Error(), "instrumentation opcode") {
		t.Fatalf("err = %v, want instrumentation-opcode rejection", err)
	}
}

func TestDumpRendersEveryOpcode(t *testing.T) {
	st := StructOf("S", FieldSpec{"a", ArrayOf(Char(), 4)}, FieldSpec{"b", Int()})
	pb := NewProgram()
	pb.GlobalInit("flag", Int(), 1)
	w := pb.Function("worker", 1)
	w.RetVoid()
	f := pb.Function("main", 0)
	obj := f.MallocType(st)
	fp := f.FieldPtr(obj, st, "a")
	f.Store(fp, 0, f.Const(65), Char())
	g := f.GlobalAddr("flag")
	v := f.Load(g, 0, Int())
	f.If(v, func() { f.Free(obj) }, nil)
	f.ForRange(ConstOperand(0), ConstOperand(2), 1, func(i Reg) { f.Mul(i, i) })
	f.Libc("memset", fp, f.Const(0), f.Const(4))
	f.CallExternal("getenv", false, fp)
	f.ParFor("worker", f.Const(0), f.Const(2), 2)
	f.Call("worker", f.Const(0))
	f.RetVoid()
	p := pb.MustBuild()

	dump := p.Dump()
	for _, want := range []string{"malloc", "gep", "store1", "globaladdr", "load4", "free",
		"libc memset", "callext getenv", "parfor worker", "call worker", "global flag", "; loop"} {
		if !strings.Contains(dump, want) {
			t.Errorf("Dump missing %q:\n%s", want, dump)
		}
	}
}

// TestBuildStoresExactSize checks that Build leaves no append slack in a
// function's code or the global table.
func TestBuildStoresExactSize(t *testing.T) {
	pb := NewProgram()
	for _, name := range []string{"a", "b", "c"} {
		pb.Global(name, Int())
	}
	f := pb.Function("main", 0)
	for i := 0; i < 5; i++ {
		f.Const(int64(i))
	}
	f.RetVoid()
	p := pb.MustBuild()
	if cap(p.Globals) != len(p.Globals) {
		t.Errorf("globals len %d cap %d", len(p.Globals), cap(p.Globals))
	}
	if c := p.Func("main").Code; cap(c) != len(c) {
		t.Errorf("code len %d cap %d", len(c), cap(c))
	}
}

// TestBuildTwiceFails pins that a builder builds one program: its growable
// space is recycled by the first Build.
func TestBuildTwiceFails(t *testing.T) {
	pb := NewProgram()
	pb.Function("main", 0).RetVoid()
	if _, err := pb.Build(); err != nil {
		t.Fatalf("first Build: %v", err)
	}
	if _, err := pb.Build(); err == nil {
		t.Fatal("second Build succeeded")
	}
}

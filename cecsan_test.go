package cecsan

import (
	"strings"
	"testing"

	"cecsan/prog"
)

func overflowProgram() *prog.Program {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	buf := f.MallocBytes(16)
	n := f.Libc("rand")
	off := f.Add(f.Bin(prog.BinAnd, n, f.Const(0)), f.Const(16))
	f.Store(f.OffsetPtrReg(buf, off), 0, f.Const(1), prog.Char())
	f.RetVoid()
	return pb.MustBuild()
}

func TestRunDefaultsToCECSan(t *testing.T) {
	res, err := Run(overflowProgram(), Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Violation == nil {
		t.Fatal("overflow not detected under default config")
	}
	if res.Violation.Kind != KindOOBWrite {
		t.Fatalf("kind = %v, want %v", res.Violation.Kind, KindOOBWrite)
	}
}

func TestRunEverySanitizerName(t *testing.T) {
	names := SanitizerNames()
	if len(names) != 8 {
		t.Fatalf("SanitizerNames() = %v, want 8 entries", names)
	}
	for _, name := range names {
		res, err := Run(overflowProgram(), Config{Sanitizer: name})
		if err != nil {
			t.Fatalf("Run(%s): %v", name, err)
		}
		wantDetect := name != Native
		if got := res.Violation != nil; got != wantDetect {
			t.Errorf("%s: detected=%v, want %v", name, got, wantDetect)
		}
	}
}

func TestRunUnknownSanitizer(t *testing.T) {
	if _, err := Run(overflowProgram(), Config{Sanitizer: "Valgrind"}); err == nil {
		t.Fatal("unknown sanitizer accepted")
	}
}

func TestCECSanOptionOverride(t *testing.T) {
	// Sub-object overflow detected only when SubObject is on.
	st := prog.StructOf("S",
		prog.FieldSpec{Name: "buf", Type: prog.ArrayOf(prog.Char(), 8)},
		prog.FieldSpec{Name: "fp", Type: prog.VoidPtr()},
	)
	pb := prog.NewProgram()
	pb.GlobalBytes("src", make([]byte, 16))
	f := pb.Function("main", 0)
	obj := f.MallocType(st)
	f.Libc("memcpy", f.FieldPtr(obj, st, "buf"), f.GlobalAddr("src"), f.Const(16))
	f.RetVoid()
	p := pb.MustBuild()

	on := DefaultCECSanOptions()
	res, err := Run(p, Config{Sanitizer: CECSan, CECSan: &on})
	if err != nil || res.Violation == nil {
		t.Fatalf("sub-object on: err=%v res=%+v", err, res)
	}
	off := DefaultCECSanOptions()
	off.SubObject = false
	res2, err := Run(p, Config{Sanitizer: CECSan, CECSan: &off})
	if err != nil || res2.Violation != nil {
		t.Fatalf("sub-object off: err=%v violation=%v", err, res2.Violation)
	}
}

func TestMachineInputsAndOutput(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	buf := f.MallocBytes(32)
	n := f.Libc("fgets", buf, f.Const(32))
	f.Libc("print_int", n)
	f.Libc("print_str", buf)
	f.RetVoid()
	p := pb.MustBuild()

	m, err := NewMachine(p, Config{Inputs: [][]byte{[]byte("hello-harness")}})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if name := m.SanitizerName(); name != CECSan {
		t.Fatalf("SanitizerName = %q", name)
	}
	res := m.Run()
	if !res.Ok() {
		t.Fatalf("run failed: %+v", res)
	}
	out := m.Output()
	if len(out) != 2 || out[0] != "13" || out[1] != "hello-harness" {
		t.Fatalf("output = %q", out)
	}
	if m.CoreRuntime() == nil {
		t.Fatal("CoreRuntime() nil for CECSan machine")
	}
}

func TestInstrumentExposesCompiledForm(t *testing.T) {
	ip, err := Instrument(overflowProgram(), CECSan)
	if err != nil {
		t.Fatalf("Instrument: %v", err)
	}
	dump := ip.Func("main").Dump()
	if !strings.Contains(dump, "check.w") {
		t.Fatalf("instrumented dump lacks checks:\n%s", dump)
	}
}

func TestMaxInstructionsConfig(t *testing.T) {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	f.While(func() prog.Reg { return f.Const(1) }, func() {})
	p := pb.MustBuild()
	res, err := Run(p, Config{Sanitizer: Native, MaxInstructions: 5000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Err == nil {
		t.Fatal("instruction budget not enforced")
	}
}

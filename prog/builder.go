package prog

import (
	"errors"
	"fmt"
	"sync"
)

// ProgramBuilder assembles a Program from functions and globals.
type ProgramBuilder struct {
	prog *Program
	errs []error
	fbs  []*FuncBuilder
	// globals grows the global table until Build copies it out; it is
	// recycled, and nil once Build has run.
	globals *globalScratch
}

type globalScratch struct{ specs []GlobalSpec }

var globalScratches = sync.Pool{New: func() any { return new(globalScratch) }}

// NewProgram returns an empty program builder.
func NewProgram() *ProgramBuilder {
	return &ProgramBuilder{prog: &Program{Entry: "main"}, globals: globalScratches.Get().(*globalScratch)}
}

func (pb *ProgramBuilder) addGlobal(g GlobalSpec) {
	pb.globals.specs = append(pb.globals.specs, g)
}

// Global declares a zero-initialized global of the given type.
func (pb *ProgramBuilder) Global(name string, t *Type) {
	pb.addGlobal(GlobalSpec{Name: name, Type: t})
}

// GlobalInit declares a global whose first 8 bytes are initialized to v
// (the flag/int globals Juliet-style control-flow variants branch on).
func (pb *ProgramBuilder) GlobalInit(name string, t *Type, v int64) {
	pb.addGlobal(GlobalSpec{Name: name, Type: t, Init: v})
}

// GlobalBytes declares a global initialized with the given bytes (a string
// literal in the data segment). The type is char[len(b)+1], NUL-terminated.
// The program keeps b, so programs built from one initializer share it: the
// caller must not modify b afterwards.
func (pb *ProgramBuilder) GlobalBytes(name string, b []byte) {
	pb.GlobalData(name, ArrayOf(Char(), int64(len(b))+1), b)
}

// GlobalData declares a global of type t initialized with the given bytes,
// which must fit in t. Like GlobalBytes, the program keeps b; generators
// that declare the same global in many programs pass one shared type and
// initializer.
func (pb *ProgramBuilder) GlobalData(name string, t *Type, b []byte) {
	pb.addGlobal(GlobalSpec{Name: name, Type: t, InitBytes: b})
}

// GlobalUnsafe declares an address-taken global, which the instrumentation
// treats as unsafe and protects through the GPT (§II.C.3).
func (pb *ProgramBuilder) GlobalUnsafe(name string, t *Type) {
	pb.addGlobal(GlobalSpec{Name: name, Type: t, AddressTaken: true})
}

// Function opens a new function with the given number of parameters, which
// arrive in registers 0..numParams-1.
func (pb *ProgramBuilder) Function(name string, numParams int) *FuncBuilder {
	s := funcScratches.Get().(*funcScratch)
	fb := &FuncBuilder{
		pb: pb,
		fn: &Func{
			Name: name, NumParams: numParams, NumRegs: numParams,
			Code: s.code, Loops: s.loops, Refs: s.refs, ArgPool: s.argPool,
		},
		s: s,
	}
	pb.fbs = append(pb.fbs, fb)
	return fb
}

// Build finalizes all functions, validates the program, and returns it.
// Each function's code, loops and side tables and the global table are
// copied out of the builders' growable space exact-size, once.
// A builder builds one program: it declares no globals after Build, and a
// second Build fails.
func (pb *ProgramBuilder) Build() (*Program, error) {
	g := pb.globals
	if g == nil {
		return nil, errors.New("prog: program already built")
	}
	p := pb.prog
	p.Globals = exactCopy(g.specs)
	g.specs = g.specs[:0]
	pb.globals = nil
	globalScratches.Put(g)
	p.Funcs = make([]*Func, 0, len(pb.fbs))
	for _, fb := range pb.fbs {
		if p.funcIndex(fb.fn.Name) >= 0 {
			pb.errs = append(pb.errs, fmt.Errorf("prog: function %q defined twice", fb.fn.Name))
			continue
		}
		if fb.needsTrailingRet() {
			fb.RetVoid()
		}
		fb.finish()
		p.Funcs = append(p.Funcs, fb.fn)
	}
	if len(pb.errs) > 0 {
		return nil, pb.errs[0]
	}
	if err := Validate(p); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error, for statically known-good
// programs in tests and workload generators.
func (pb *ProgramBuilder) MustBuild() *Program {
	p, err := pb.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// FuncBuilder emits instructions into one function.
type FuncBuilder struct {
	pb *ProgramBuilder
	fn *Func
	// s is the growable space fn.Code and the constant table live in until
	// Build; nil once Build has copied the function out.
	s *funcScratch
}

// funcScratch is the reusable space a FuncBuilder emits into. Builds of
// many small programs (the Juliet suite) would otherwise grow every
// function's code, loops and side tables by doubling and then
// copy them exact-size.
type funcScratch struct {
	code    []Instr
	loops   []Loop
	refs    []Ref
	argPool []Reg
	// consts[r] is register r's known, never-clobbered constant.
	consts []constSlot
}

type constSlot struct {
	v     int64
	known bool
}

// funcScratches and globalScratches recycle builder space across
// programs; being sync.Pools, a collection drops what is idle.
var funcScratches = sync.Pool{New: func() any { return new(funcScratch) }}

// finish copies the function out of the scratch exact-size and returns
// the scratch to its pool.
func (f *FuncBuilder) finish() {
	s, fn := f.s, f.fn
	s.code, s.loops, s.refs, s.argPool = fn.Code, fn.Loops, fn.Refs, fn.ArgPool
	fn.Code, fn.Loops = exactCopy(s.code), exactCopy(s.loops)
	fn.Refs, fn.ArgPool = exactCopy(s.refs), exactCopy(s.argPool)
	s.code, s.loops = s.code[:0], s.loops[:0]
	clear(s.refs) // drop the names and types the pool would keep alive
	s.refs, s.argPool = s.refs[:0], s.argPool[:0]
	clear(s.consts)
	s.consts = s.consts[:0]
	f.s = nil
	funcScratches.Put(s)
}

// Fn returns the function under construction (for inspection in tests).
func (f *FuncBuilder) Fn() *Func { return f.fn }

// NewReg allocates a fresh virtual register.
func (f *FuncBuilder) NewReg() Reg {
	r := Reg(f.fn.NumRegs)
	f.fn.NumRegs++
	return r
}

// Arg returns the register holding the i-th parameter.
func (f *FuncBuilder) Arg(i int) Reg {
	if i < 0 || i >= f.fn.NumParams {
		f.errf("Arg(%d) out of range for %q with %d params", i, f.fn.Name, f.fn.NumParams)
		return NoReg
	}
	return Reg(i)
}

func (f *FuncBuilder) errf(format string, args ...any) {
	f.pb.errs = append(f.pb.errs, fmt.Errorf("prog: %s: "+format, append([]any{f.fn.Name}, args...)...))
}

func (f *FuncBuilder) emit(in Instr) int {
	f.fn.Code = append(f.fn.Code, in)
	return len(f.fn.Code) - 1
}

func (f *FuncBuilder) pc() int { return len(f.fn.Code) }

// ref returns the Instr.Ref naming sym and t, adding them to the
// function's reference table unless an equal entry is already there.
func (f *FuncBuilder) ref(sym string, t *Type) uint32 {
	r := Ref{Sym: sym, Type: t}
	for i, e := range f.fn.Refs {
		if e == r {
			return uint32(i) + 1
		}
	}
	f.fn.Refs = append(f.fn.Refs, r)
	return uint32(len(f.fn.Refs))
}

// args returns the Instr.ArgsAt naming a copy of args in the function's
// argument pool.
func (f *FuncBuilder) args(args []Reg) uint32 {
	var at uint32
	f.fn.ArgPool, at = AppendArgs(f.fn.ArgPool, args...)
	return at
}

// needsTrailingRet reports whether Build must append an implicit RetVoid:
// either the function does not end in a return, or some structured-control
// branch targets the position just past the last instruction (e.g. an If
// whose both arms return).
func (f *FuncBuilder) needsTrailingRet() bool {
	n := len(f.fn.Code)
	if n == 0 || f.fn.Code[n-1].Op != OpRet {
		return true
	}
	for _, in := range f.fn.Code {
		if (in.Op == OpBr || in.Op == OpCondBr) && in.Imm == int64(n) {
			return true
		}
	}
	return false
}

func (f *FuncBuilder) clobber(r Reg) {
	if f.s != nil && r >= 0 && int(r) < len(f.s.consts) {
		f.s.consts[r] = constSlot{}
	}
}

func (f *FuncBuilder) setConst(r Reg, v int64) {
	if f.s == nil {
		return
	}
	c := f.s.consts
	for int(r) >= len(c) {
		c = append(c, constSlot{})
	}
	c[r] = constSlot{v: v, known: true}
	f.s.consts = c
}

// ConstValue reports the compile-time constant value of r, if known. Only
// a function still under construction knows its constants.
func (f *FuncBuilder) ConstValue(r Reg) (int64, bool) {
	if f.s == nil || r < 0 || int(r) >= len(f.s.consts) {
		return 0, false
	}
	c := f.s.consts[r]
	return c.v, c.known
}

// Const materializes an integer constant into a fresh register.
func (f *FuncBuilder) Const(v int64) Reg {
	dst := f.NewReg()
	f.emit(Instr{Op: OpConst, Dst: dst, Imm: v, A: NoReg, B: NoReg})
	f.setConst(dst, v)
	return dst
}

// Mov copies src into a fresh register.
func (f *FuncBuilder) Mov(src Reg) Reg {
	dst := f.NewReg()
	f.emit(Instr{Op: OpMov, Dst: dst, A: src, B: NoReg})
	if v, ok := f.ConstValue(src); ok {
		f.setConst(dst, v)
	}
	return dst
}

// Assign overwrites an existing register with src (the IR's mutation form,
// used for induction variables and accumulators).
func (f *FuncBuilder) Assign(dst, src Reg) {
	f.clobber(dst)
	f.emit(Instr{Op: OpMov, Dst: dst, A: src, B: NoReg})
}

// AssignConst overwrites an existing register with a constant.
func (f *FuncBuilder) AssignConst(dst Reg, v int64) {
	f.clobber(dst)
	f.emit(Instr{Op: OpConst, Dst: dst, Imm: v, A: NoReg, B: NoReg})
}

// Bin emits dst = a <op> b.
func (f *FuncBuilder) Bin(op BinOp, a, b Reg) Reg {
	dst := f.NewReg()
	f.emit(Instr{Op: OpBin, X: uint8(op), Dst: dst, A: a, B: b})
	return dst
}

// Add emits dst = a + b.
func (f *FuncBuilder) Add(a, b Reg) Reg { return f.Bin(BinAdd, a, b) }

// Sub emits dst = a - b.
func (f *FuncBuilder) Sub(a, b Reg) Reg { return f.Bin(BinSub, a, b) }

// Mul emits dst = a * b.
func (f *FuncBuilder) Mul(a, b Reg) Reg { return f.Bin(BinMul, a, b) }

// AddImm emits dst = a + k.
func (f *FuncBuilder) AddImm(a Reg, k int64) Reg { return f.Add(a, f.Const(k)) }

// Cmp emits dst = (a pred b) ? 1 : 0.
func (f *FuncBuilder) Cmp(pred CmpPred, a, b Reg) Reg {
	dst := f.NewReg()
	f.emit(Instr{Op: OpCmp, X: uint8(pred), Dst: dst, A: a, B: b})
	return dst
}

// Alloca emits a stack allocation of type t and returns the address
// register. The instrumentation's stack-safety analysis later decides
// whether the object is tracked.
func (f *FuncBuilder) Alloca(t *Type) Reg {
	dst := f.NewReg()
	f.emit(Instr{Op: OpAlloca, Dst: dst, Size: t.Size(), Ref: f.ref("", t), A: NoReg, B: NoReg})
	return dst
}

// MallocType emits a heap allocation sized for type t.
func (f *FuncBuilder) MallocType(t *Type) Reg {
	dst := f.NewReg()
	f.emit(Instr{Op: OpMalloc, Dst: dst, Size: t.Size(), Ref: f.ref("", t), A: NoReg, B: NoReg})
	return dst
}

// MallocBytes emits a heap allocation of a constant byte count with no type
// information (a void* allocation; §II.F.2's optimization will not apply).
func (f *FuncBuilder) MallocBytes(n int64) Reg {
	dst := f.NewReg()
	f.emit(Instr{Op: OpMalloc, Dst: dst, Size: n, A: NoReg, B: NoReg})
	return dst
}

// MallocReg emits a heap allocation whose size comes from a register (e.g.
// external input).
func (f *FuncBuilder) MallocReg(n Reg) Reg {
	dst := f.NewReg()
	f.emit(Instr{Op: OpMalloc, Dst: dst, A: n, B: NoReg})
	return dst
}

// Free emits free(ptr).
func (f *FuncBuilder) Free(ptr Reg) {
	f.emit(Instr{Op: OpFree, A: ptr, Dst: NoReg, B: NoReg})
}

// Load emits dst = *(ptr + off) of type t (scalar or pointer).
func (f *FuncBuilder) Load(ptr Reg, off int64, t *Type) Reg {
	dst := f.NewReg()
	in := Instr{Op: OpLoad, Dst: dst, A: ptr, Off: off, Size: t.Size(), Ref: f.ref("", t), B: NoReg}
	if t.Kind() == KindPtr {
		in.Flags |= FlagPtrVal
	}
	f.emit(in)
	return dst
}

// Store emits *(ptr + off) = val of type t.
func (f *FuncBuilder) Store(ptr Reg, off int64, val Reg, t *Type) {
	in := Instr{Op: OpStore, A: ptr, B: val, Off: off, Size: t.Size(), Ref: f.ref("", t), Dst: NoReg}
	if t.Kind() == KindPtr {
		in.Flags |= FlagPtrVal
	}
	f.emit(in)
}

// FieldPtr emits dst = &base->field for a struct pointer. The GEP carries
// the field's type and size, making it a §II.D sub-object narrowing
// candidate, and is statically safe per §II.F.2.
func (f *FuncBuilder) FieldPtr(base Reg, st *Type, field string) Reg {
	fl, ok := st.FieldByName(field)
	if !ok {
		f.errf("FieldPtr: struct %s has no field %q", st, field)
		return NoReg
	}
	dst := f.NewReg()
	f.emit(Instr{
		Op: OpGEP, Dst: dst, A: base, B: NoReg,
		Off: fl.Offset, Size: fl.Type.Size(), Ref: f.ref(field, fl.Type),
		Flags: FlagSubObject | FlagStaticSafe,
	})
	return dst
}

// IndexPtr emits dst = &base[idx] for an array of arr's element type. If idx
// is a known constant within the array bounds the GEP is marked statically
// safe (§II.F.2).
func (f *FuncBuilder) IndexPtr(base Reg, arr *Type, idx Reg) Reg {
	if arr.Kind() != KindArray {
		f.errf("IndexPtr: %s is not an array type", arr)
		return NoReg
	}
	dst := f.NewReg()
	in := Instr{Op: OpGEP, Dst: dst, A: base, B: idx, Imm: arr.Elem().Size(), Ref: f.ref("", arr.Elem())}
	if v, ok := f.ConstValue(idx); ok && v >= 0 && v < arr.Len() {
		in.Flags |= FlagStaticSafe
	}
	f.emit(in)
	return dst
}

// ElemPtr emits dst = base + idx*elem.Size() where only the element type is
// known (pointer-to-elem arithmetic; bounds not statically known).
func (f *FuncBuilder) ElemPtr(base Reg, elem *Type, idx Reg) Reg {
	dst := f.NewReg()
	f.emit(Instr{Op: OpGEP, Dst: dst, A: base, B: idx, Imm: elem.Size(), Ref: f.ref("", elem)})
	return dst
}

// OffsetPtr emits dst = base + byteOff with no type information (void*
// arithmetic; never statically safe).
func (f *FuncBuilder) OffsetPtr(base Reg, byteOff int64) Reg {
	dst := f.NewReg()
	f.emit(Instr{Op: OpGEP, Dst: dst, A: base, B: NoReg, Off: byteOff})
	return dst
}

// OffsetPtrReg emits dst = base + off (byte offset in a register, no type
// information).
func (f *FuncBuilder) OffsetPtrReg(base Reg, off Reg) Reg {
	dst := f.NewReg()
	f.emit(Instr{Op: OpGEP, Dst: dst, A: base, B: off, Imm: 1})
	return dst
}

// GlobalAddr emits dst = &global.
func (f *FuncBuilder) GlobalAddr(name string) Reg {
	dst := f.NewReg()
	f.emit(Instr{Op: OpGlobalAddr, Dst: dst, Ref: f.ref(name, nil), A: NoReg, B: NoReg})
	return dst
}

// Call emits dst = fn(args...). The callee is instrumented code in the same
// program.
func (f *FuncBuilder) Call(fn string, args ...Reg) Reg {
	dst := f.NewReg()
	f.emit(Instr{Op: OpCall, Dst: dst, Ref: f.ref(fn, nil), ArgsAt: f.args(args), A: NoReg, B: NoReg})
	return dst
}

// CallExternal emits a call to external, uninstrumented code (§II.E). If
// retIsArg0 is true the callee returns its first argument (strcpy-style)
// and instrumentation will re-apply the stripped tag to the return value.
func (f *FuncBuilder) CallExternal(fn string, retIsArg0 bool, args ...Reg) Reg {
	dst := f.NewReg()
	in := Instr{Op: OpCallExternal, Dst: dst, Ref: f.ref(fn, nil), ArgsAt: f.args(args), A: NoReg, B: NoReg, Flags: FlagRetPtr}
	if retIsArg0 {
		in.Flags |= FlagRetIsArg0
	}
	f.emit(in)
	return dst
}

// Libc emits dst = libcFn(args...): one of the machine's simulated C library
// functions (memcpy, memset, strcpy, wcsncpy, fgets, recv, rand, ...).
func (f *FuncBuilder) Libc(fn string, args ...Reg) Reg {
	dst := f.NewReg()
	f.emit(Instr{Op: OpLibc, Dst: dst, Ref: f.ref(fn, nil), ArgsAt: f.args(args), A: NoReg, B: NoReg})
	return dst
}

// ParFor emits a parallel-for region: fn(i) is invoked for every i in
// [lo, hi), partitioned over the given number of threads — the repository's
// OpenMP analogue.
func (f *FuncBuilder) ParFor(fn string, lo, hi Reg, threads int) {
	f.emit(Instr{Op: OpParFor, Ref: f.ref(fn, nil), A: lo, B: hi, Imm: int64(threads), Dst: NoReg})
}

// Ret emits return val.
func (f *FuncBuilder) Ret(val Reg) {
	f.emit(Instr{Op: OpRet, A: val, Dst: NoReg, B: NoReg})
}

// RetVoid emits a void return.
func (f *FuncBuilder) RetVoid() {
	f.emit(Instr{Op: OpRet, A: NoReg, Dst: NoReg, B: NoReg})
}

// If emits a conditional: then() runs when cond != 0, els() (which may be
// nil) otherwise.
func (f *FuncBuilder) If(cond Reg, then func(), els func()) {
	jmpToThen := f.emit(Instr{Op: OpCondBr, A: cond, Dst: NoReg, B: NoReg})
	if els != nil {
		els()
	}
	jmpToEnd := f.emit(Instr{Op: OpBr, Dst: NoReg, A: NoReg, B: NoReg})
	f.fn.Code[jmpToThen].Imm = int64(f.pc())
	then()
	f.fn.Code[jmpToEnd].Imm = int64(f.pc())
}

// While emits a condition-controlled loop: body runs while cond() != 0.
// No scalar-evolution facts are recorded (the loop is not counted).
func (f *FuncBuilder) While(cond func() Reg, body func()) {
	head := f.pc()
	c := cond()
	exitIfZero := f.Cmp(CmpEq, c, f.Const(0))
	jmpExit := f.emit(Instr{Op: OpCondBr, A: exitIfZero, Dst: NoReg, B: NoReg})
	body()
	f.emit(Instr{Op: OpBr, Imm: int64(head), Dst: NoReg, A: NoReg, B: NoReg})
	f.fn.Code[jmpExit].Imm = int64(f.pc())
}

// ForRange emits a counted loop `for (i = start; i < limit; i += step)`,
// recording the scalar-evolution facts for §II.F.1. start and limit are
// Operands (constant or register); step must be a nonzero constant.
func (f *FuncBuilder) ForRange(start, limit Operand, step int64, body func(i Reg)) {
	if step == 0 {
		f.errf("ForRange: zero step")
		return
	}
	i := f.NewReg()
	if start.IsConst {
		f.AssignConst(i, start.Const)
	} else {
		f.Assign(i, start.Reg)
	}
	var limReg Reg
	if limit.IsConst {
		limReg = f.Const(limit.Const)
	} else {
		limReg = limit.Reg
	}
	headStart := f.pc()
	pred := CmpSGe // exit when i >= limit (ascending)
	if step < 0 {
		pred = CmpSLe // exit when i <= limit (descending)
	}
	done := f.Cmp(pred, i, limReg)
	jmpExit := f.emit(Instr{Op: OpCondBr, A: done, Dst: NoReg, B: NoReg})
	headEnd := f.pc()
	body(i)
	bodyEnd := f.pc()
	stepReg := f.Const(step)
	f.clobber(i)
	f.emit(Instr{Op: OpBin, X: uint8(BinAdd), Dst: i, A: i, B: stepReg})
	f.emit(Instr{Op: OpBr, Imm: int64(headStart), Dst: NoReg, A: NoReg, B: NoReg})
	latchEnd := f.pc()
	f.fn.Code[jmpExit].Imm = int64(latchEnd)
	f.fn.Loops = append(f.fn.Loops, Loop{
		HeadStart: headStart, HeadEnd: headEnd,
		BodyStart: headEnd, BodyEnd: bodyEnd,
		LatchEnd: latchEnd,
		IndVar:   i, Start: start, Limit: limit, Step: step,
	})
}

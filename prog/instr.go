package prog

import (
	"fmt"
	"sync/atomic"
)

// Reg identifies a virtual register within a function. Registers hold
// untyped 64-bit words; instruction semantics decide whether a word is an
// address or an integer, exactly as machine registers do.
type Reg int32

// NoReg marks an absent register operand.
const NoReg Reg = -1

// Op is an instruction opcode.
type Op uint8

// Program-authored opcodes. They start at 1 so the zero value (OpInvalid)
// is recognizably uninitialized.
const (
	OpInvalid Op = iota

	OpConst  // Dst = Imm
	OpMov    // Dst = A
	OpBin    // Dst = A <binop X> B
	OpCmp    // Dst = (A <pred X> B) ? 1 : 0
	OpBr     // pc = Imm
	OpCondBr // if A != 0 { pc = Imm } else fall through

	OpAlloca     // Dst = &stack object of Type (Size bytes)
	OpMalloc     // Dst = malloc(A); if A == NoReg, malloc(Size)
	OpFree       // free(A)
	OpLoad       // Dst = *(A + Off), Size bytes
	OpStore      // *(A + Off) = B, Size bytes
	OpGEP        // Dst = A + Off + B*Imm (B may be NoReg); Type = pointee
	OpGlobalAddr // Dst = &global(Sym)

	OpCall         // Dst = Sym(Args...)
	OpCallExternal // Dst = external Sym(Args...); uninstrumented callee
	OpLibc         // Dst = libc Sym(Args...)
	OpParFor       // parallel-for: Sym(i) for i in [A,B), Imm threads
	OpRet          // return A (or void if A == NoReg)

	// Opcodes below are inserted by instrumentation (internal/instrument);
	// authoring them directly is a validation error unless the program is
	// marked pre-instrumented.

	OpCheckAccess // sanitizer check: access [A+Off, A+Off+Size), write if FlagWrite; if B != NoReg the size is dynamic (regs[B] bytes)

	// OpCheckPeriodic is the §II.F.1 grouped monotonic check (Figure 4a):
	// for a loop whose induction variable walks [start, limit) with a
	// constant step, the per-element check fires only every check_step-th
	// iteration, widened to cover the elements up to the next firing
	// (clamped at the loop limit). Encoding: Args = [ptr, indvar, limitReg],
	// Imm = start, Off = step*checkStep (the firing modulus), X = step,
	// Size = element size in bytes, FlagWrite selects the access kind.
	OpCheckPeriodic
	OpSubPtr     // Dst = sanitizer-narrowed sub-object pointer of A at [Off, Off+Size)
	OpSubRelease // release sub-object metadata of A
	OpStripPtr   // Dst = strip(A): remove tag bits
	OpRetagPtr   // Dst = retag(A with tag of B)

	OpPtrMetaCopy  // per-pointer metadata: meta[Dst] = meta[A] (SoftBound)
	OpPtrMetaLoad  // per-pointer metadata: meta[Dst] = shadow[A+Off] (after pointer load)
	OpPtrMetaStore // per-pointer metadata: shadow[A+Off] = meta[B] (after pointer store)

	opMax
)

// BinOp selects the operation of an OpBin instruction (stored in Instr.X).
type BinOp uint8

// Binary operations.
const (
	BinAdd BinOp = iota + 1
	BinSub
	BinMul
	BinDiv // signed; division by zero faults the program
	BinRem // signed
	BinAnd
	BinOr
	BinXor
	BinShl
	BinShr // logical
)

// CmpPred selects the predicate of an OpCmp instruction (stored in Instr.X).
type CmpPred uint8

// Comparison predicates.
const (
	CmpEq CmpPred = iota + 1
	CmpNe
	CmpSLt
	CmpSLe
	CmpSGt
	CmpSGe
	CmpULt
	CmpULe
	CmpUGt
	CmpUGe
)

// Flag is a bitset of static facts attached to an instruction by the builder
// or by instrumentation passes.
type Flag uint16

// Instruction flags.
const (
	// FlagStaticSafe marks a GEP that is statically provably in-bounds with
	// respect to its base object (constant field offset, or constant array
	// index below the array length) — the §II.F.2 optimization input.
	FlagStaticSafe Flag = 1 << iota
	// FlagSubObject marks a GEP that selects a composite member and is
	// therefore a candidate for §II.D sub-object bounds narrowing.
	FlagSubObject
	// FlagPtrVal marks a load/store whose value is a pointer, which
	// per-pointer-metadata sanitizers (SoftBound) must shadow.
	FlagPtrVal
	// FlagWrite marks a check as covering a write access.
	FlagWrite
	// FlagRetPtr marks an external call returning a fresh foreign pointer.
	FlagRetPtr
	// FlagRetIsArg0 marks an external call that returns its first pointer
	// argument (strcpy-style), triggering the §II.E re-tag wrapper.
	FlagRetIsArg0
	// FlagTracked marks an alloca or global the instrumentation decided is
	// "unsafe" (§II.C.3) and therefore carries metadata.
	FlagTracked
	// FlagNoReuse marks an alloca whose metadata the sanitizer should keep
	// live to end of function (used in tests).
	FlagNoReuse
	// FlagResolvedTarget marks a branch inserted by an instrumentation pass
	// whose target is already an index into the rewritten code and must not
	// be remapped again.
	FlagResolvedTarget
)

// Instr is one IR instruction. The operand meaning depends on Op; see the
// opcode constants. Instr is a value type: programs are flat []Instr slices
// for interpreter cache friendliness. It holds no pointers, so the
// collector never scans code: an instruction's symbol, type and argument
// list live in its function's side tables (Func.Refs and Func.ArgPool),
// read through Func.Sym, Func.Type and Func.Args. Flags shares a word with
// Op, X and Dst, and Ref with ArgsAt, so an Instr is 48 bytes.
type Instr struct {
	Op    Op
	X     uint8 // BinOp, CmpPred, or check-kind discriminator
	Flags Flag
	Dst   Reg
	A     Reg
	B     Reg
	// Ref is 1 + the index of the instruction's symbol and type in
	// Func.Refs, 0 for neither.
	Ref uint32
	// ArgsAt is 1 + the offset of the instruction's length-prefixed
	// argument list in Func.ArgPool, 0 for none.
	ArgsAt uint32
	Imm    int64
	Off    int64
	Size   int64
}

// Ref is one entry of a function's reference table: the symbol (callee,
// global, parfor body or field name) and type an instruction names. A
// field GEP names both; every other instruction names at most one.
type Ref struct {
	Sym  string
	Type *Type
}

// Has reports whether all bits of f are set.
func (i *Instr) Has(f Flag) bool { return i.Flags&f == f }

// Loop records the scalar-evolution facts the builder knows about one
// counted loop: the induction variable, its start, (exclusive) limit and
// step, and the half-open instruction ranges of the header and body. This is
// the information LLVM's ScalarEvolution derives and §II.F.1 consumes for
// invariant and monotonic check optimization.
type Loop struct {
	// HeadStart..HeadEnd is the header range (condition evaluation and the
	// conditional branch). BodyStart..BodyEnd is the body, excluding the
	// induction-variable increment and back edge, which occupy
	// BodyEnd..LatchEnd.
	HeadStart, HeadEnd int
	BodyStart, BodyEnd int
	LatchEnd           int
	IndVar             Reg
	Start, Limit       Operand
	Step               int64
}

// Operand is either a constant or a register, used in Loop facts.
type Operand struct {
	Reg     Reg
	Const   int64
	IsConst bool
}

// ConstOperand returns a constant operand.
func ConstOperand(v int64) Operand { return Operand{Const: v, IsConst: true, Reg: NoReg} }

// RegOperand returns a register operand.
func RegOperand(r Reg) Operand { return Operand{Reg: r} }

// String renders the operand.
func (o Operand) String() string {
	if o.IsConst {
		return fmt.Sprintf("%d", o.Const)
	}
	return fmt.Sprintf("r%d", o.Reg)
}

// Func is one IR function: a flat instruction slice with branch targets as
// instruction indices, plus the builder-recorded loop facts.
type Func struct {
	Name      string
	NumParams int // parameters arrive in registers 0..NumParams-1
	NumRegs   int
	Code      []Instr
	Loops     []Loop

	// Allocas lists the indices of OpAlloca instructions, for the stack
	// object safety analysis.
	Allocas []int

	// Refs and ArgPool are the side tables Instr.Ref and Instr.ArgsAt
	// index. ArgPool holds each argument list as its length followed by its
	// registers. Tables are per function, not per program, so an
	// instrumented program shares them with its source: a rewritten
	// function keeps its source's Refs and copies ArgPool only when it adds
	// an argument list.
	Refs    []Ref
	ArgPool []Reg
}

// ref returns in's reference table entry, zero when it has none.
func (f *Func) ref(in *Instr) Ref {
	if in.Ref == 0 {
		return Ref{}
	}
	return f.Refs[in.Ref-1]
}

// Sym returns the symbol in names: the callee of a call or parfor, the
// global of OpGlobalAddr, the member of a field GEP; "" for none.
func (f *Func) Sym(in *Instr) string { return f.ref(in).Sym }

// Type returns the type in carries (allocas, typed mallocs, loads, stores
// and typed GEPs), nil for none.
func (f *Func) Type(in *Instr) *Type { return f.ref(in).Type }

// Args returns in's argument registers (calls, and OpCheckPeriodic's
// [ptr, indvar, limit]), nil for none. The slice aliases ArgPool and must
// not be modified.
func (f *Func) Args(in *Instr) []Reg {
	if in.ArgsAt == 0 {
		return nil
	}
	at := int(in.ArgsAt)
	end := at + int(f.ArgPool[at-1])
	return f.ArgPool[at:end:end]
}

// AppendArgs appends the argument list args to pool and returns the grown
// pool with the value an instruction's ArgsAt takes to name the list (0
// for an empty one).
func AppendArgs(pool []Reg, args ...Reg) ([]Reg, uint32) {
	if len(args) == 0 {
		return pool, 0
	}
	pool = append(pool, Reg(len(args)))
	at := uint32(len(pool))
	return append(pool, args...), at
}

// GlobalSpec declares a program global.
type GlobalSpec struct {
	Name string
	Type *Type
	// Init optionally provides an initial value for the first 8 bytes
	// (enough for the flag/int globals Juliet-style control flow uses).
	Init int64
	// InitBytes optionally provides initial data (string literals).
	InitBytes []byte
	// AddressTaken marks globals whose address escapes; the instrumentation
	// treats them as unsafe (§II.C.3) and routes accesses through the GPT.
	AddressTaken bool
}

// Program is a complete translation unit: functions, globals and an entry
// point. Programs are immutable after Build; instrumentation builds a new
// program that shares whatever it does not change.
type Program struct {
	Funcs   map[string]*Func
	Order   []string // function names in definition order
	Globals []GlobalSpec
	Entry   string

	// fp memoizes Fingerprint. The engine fingerprints every program on
	// every cache lookup; programs are immutable once built, so the hash is
	// computed once.
	fp atomic.Pointer[Fingerprint]
	// link memoizes Link on the same terms: computed once per program.
	link atomic.Pointer[Link]
}

// exactCopy returns a copy of s whose capacity equals its length, nil when
// s is empty.
func exactCopy[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

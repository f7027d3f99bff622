package interp

import (
	"slices"

	"cecsan/internal/rt"
	"cecsan/prog"
)

// opcode selects what one decoded op runs: one opcode per source opcode and
// operator variant, specialized at decode time on what the reference
// semantics test per instruction (metadata tracking, the check observer, a
// dynamic check size), plus the superinstructions.
type opcode uint8

const (
	opInvalid opcode = iota
	opEnd            // sentinel after the last instruction: fell off the end
	opNop            // per-pointer metadata op of a runtime that tracks none
	opConst
	opMov
	opMovMeta

	// Binary operators, in prog.BinOp order.
	opAdd
	opSub
	opMul
	opDiv
	opRem
	opAnd
	opOr
	opXor
	opShl
	opShr
	// opAddMeta and opSubMeta also propagate per-pointer metadata.
	opAddMeta
	opSubMeta

	// Comparisons, in prog.CmpPred order.
	opEq
	opNe
	opSLt
	opSLe
	opSGt
	opSGe
	opULt
	opULe
	opUGt
	opUGe

	opBr
	opCondBr
	opAlloca
	opMalloc
	opFree
	opLoad
	opStore
	opGEP
	opGEPMeta
	opGlobalAddr
	opCall
	opCallExternal
	opLibc
	opParFor
	opRet
	opCheck     // static size, no observer
	opCheckSlow // dynamic size or observed
	opPeriodic
	opSubPtr
	opSubRelease
	opStripPtr
	opRetagPtr
	opPtrMetaCopy
	opPtrMetaLoad
	opPtrMetaStore

	// Superinstructions. The head op keeps its own operands and the tails
	// stay decoded at pc+1 and pc+2, where the head reads them: a branch into
	// the middle of a group runs the plain tail.
	opConstAdd
	opConstSub
	opConstMul
	opConstAnd
	opLatch // const + add + br
	// cmp + condbr on the comparison's result, for the predicates the
	// corpus's loops and conditionals use.
	opSGeBr
	opSLtBr
	opEqBr
	opGEPLoad
	opGEPStore
	opGEPCheckLoad
	opGEPCheckStore
	opCheckLoad
	opCheckStore
	opPeriodicLoad
	opPeriodicStore

	numOpcodes
)

// superNames names every superinstruction, indexed by opcode.
var superNames = [numOpcodes]string{
	opConstAdd:      "const+add",
	opConstSub:      "const+sub",
	opConstMul:      "const+mul",
	opConstAnd:      "const+and",
	opLatch:         "const+add+br",
	opSGeBr:         "cmp.sge+condbr",
	opSLtBr:         "cmp.slt+condbr",
	opEqBr:          "cmp.eq+condbr",
	opGEPLoad:       "gep+load",
	opGEPStore:      "gep+store",
	opGEPCheckLoad:  "gep+check+load",
	opGEPCheckStore: "gep+check+store",
	opCheckLoad:     "check+load",
	opCheckStore:    "check+store",
	opPeriodicLoad:  "checkperiodic+load",
	opPeriodicStore: "checkperiodic+store",
}

// op is one decoded instruction, 32 bytes. There is one op per source pc,
// so branch targets, violation PCs and check sites are source PCs. Operand
// use by opcode:
//
//	const             dst, x = value
//	mov, bin, cmp     dst, a, b
//	br, condbr        a (condbr), x = target
//	load, store       dst (load), a = address, b = value (store), x = offset, y = size
//	gep               dst, a, b, x = offset, y = scale
//	globaladdr        dst, x = GPT slot (-1: unresolved)
//	call, parfor      dst, a, b, x = callee index (-1: unresolved)
//	malloc            dst, a, y = static size
//	check             a, b = size register, dst = rt.AccessKind, x = offset, y = size
//	checkperiodic     a = pointer, b = induction variable, x = start, y = periodicMagic
//	subptr            dst, a
//	ptrmeta*          dst, a, b, x = offset
//
// Cold ops (alloca, malloc, calls, libc, parfor, subptr) and the firing
// path of a periodic check read the rest from their source prog.Instr.
type op struct {
	code opcode
	n    uint8 // source instructions the op covers: 1, or a superinstruction's length
	dst  prog.Reg
	a    prog.Reg
	b    prog.Reg
	x    int64
	y    int64
}

// fcode is one function's decoded form.
type fcode struct {
	ops     []op // one op per source instruction, then the opEnd sentinel
	src     []prog.Instr
	fn      *prog.Func // the source, for its side tables
	name    string
	numRegs int
}

// sym returns the symbol of the source instruction at pc.
func (f *fcode) sym(pc int) string { return f.fn.Sym(&f.src[pc]) }

// args returns the argument registers of the source instruction at pc.
func (f *fcode) args(pc int) []prog.Reg { return f.fn.Args(&f.src[pc]) }

// periodicMagic returns the multiplier for the divisibility filter in
// periodicSkip, ^uint64(0)/mod+1 = ceil(2^64/mod), or 0 when the filter
// does not apply (mod outside [2, 2^32)).
func periodicMagic(mod int64) uint64 {
	if mod < 2 || mod >= 1<<32 {
		return 0
	}
	return ^uint64(0)/uint64(mod) + 1
}

// periodicSkip reports that a grouped check whose firing modulus has the
// given magic is certainly not due at distance d = iv-start from the loop
// start, i.e. d%mod != 0, without dividing: for |d| and mod below 2^32,
// d is a multiple of mod iff |d|*magic mod 2^64 <= magic-1 (Lemire, Kaser
// and Kurz, "Faster Remainder by Direct Computation", 2019). Every other
// case returns false and the caller tests d%mod exactly.
func periodicSkip(d int64, magic uint64) bool {
	u := uint64(d)
	if d < 0 {
		u = -u
	}
	return magic != 0 && u < 1<<32 && u*magic > magic-1
}

// decode lowers every function of the machine's link into res's pooled op
// arena, one decoded form per machine: nothing is stored on the program, so
// cached programs cost no memory beyond their instructions.
func (m *Machine) decode(res *Resources) {
	funcs := m.link.Funcs
	total := 0
	for i := range funcs {
		total += len(funcs[i].Func.Code) + 1
	}
	res.ops = slices.Grow(res.ops[:0], total)[:total]
	res.code = slices.Grow(res.code[:0], len(funcs))[:len(funcs)]
	ops := res.ops
	for i := range funcs {
		f := funcs[i].Func
		n := len(f.Code) + 1
		res.code[i] = fcode{ops: ops[:n:n], src: f.Code, fn: f, name: f.Name, numRegs: f.NumRegs}
		m.decodeFunc(ops[:n], f, funcs[i].Targets)
		if !m.opts.DisableFusion {
			fuse(ops[:n])
		}
		ops = ops[n:]
	}
	m.code = res.code
}

// decodeFunc decodes f's instructions into ops[:len(f.Code)] and the
// sentinel into ops[len(f.Code)]. targets is the function's link table.
func (m *Machine) decodeFunc(ops []op, f *prog.Func, targets []int32) {
	code := f.Code
	n := len(code)
	meta := m.trackMeta
	for pc := range code {
		in := &code[pc]
		o := op{n: 1, dst: in.Dst, a: in.A, b: in.B}
		switch in.Op {
		case prog.OpConst:
			o.code, o.x = opConst, in.Imm
		case prog.OpMov:
			o.code = opMov
			if meta {
				o.code = opMovMeta
			}
		case prog.OpBin:
			switch x := prog.BinOp(in.X); {
			case x < prog.BinAdd || x > prog.BinShr:
				o.code = opConst // an unknown operator yields 0
			case meta && (x == prog.BinAdd || x == prog.BinSub):
				o.code = opAddMeta + opcode(x-prog.BinAdd)
			default:
				o.code = opAdd + opcode(x-prog.BinAdd)
			}
		case prog.OpCmp:
			if x := prog.CmpPred(in.X); x < prog.CmpEq || x > prog.CmpUGe {
				o.code = opConst // an unknown predicate is false
			} else {
				o.code = opEq + opcode(x-prog.CmpEq)
			}
		case prog.OpBr:
			o.code, o.x = opBr, min(in.Imm, int64(n))
		case prog.OpCondBr:
			o.code, o.x = opCondBr, min(in.Imm, int64(n))
		case prog.OpAlloca:
			o.code = opAlloca
		case prog.OpMalloc:
			o.code, o.y = opMalloc, in.Size
		case prog.OpFree:
			o.code = opFree
		case prog.OpLoad:
			o.code, o.x, o.y = opLoad, in.Off, in.Size
		case prog.OpStore:
			o.code, o.x, o.y = opStore, in.Off, in.Size
		case prog.OpGEP:
			o.code, o.x, o.y = opGEP, in.Off, in.Imm
			if meta {
				o.code = opGEPMeta
			}
			if in.B == prog.NoReg {
				o.b, o.y = in.A, 0 // a zero-scaled index adds nothing
			}
		case prog.OpGlobalAddr:
			o.code, o.x = opGlobalAddr, linked(targets, pc)
		case prog.OpCall:
			o.code, o.x = opCall, linked(targets, pc)
		case prog.OpParFor:
			o.code, o.x = opParFor, linked(targets, pc)
		case prog.OpCallExternal:
			o.code = opCallExternal
		case prog.OpLibc:
			o.code = opLibc
		case prog.OpRet:
			o.code = opRet
		case prog.OpCheckAccess:
			o.code, o.x, o.y, o.dst = opCheck, in.Off, in.Size, prog.Reg(rt.Read)
			if in.Has(prog.FlagWrite) {
				o.dst = prog.Reg(rt.Write)
			}
			if in.B != prog.NoReg || m.opts.CheckObserver != nil {
				o.code = opCheckSlow
			}
		case prog.OpCheckPeriodic:
			o.code, o.a, o.b, o.x = opPeriodic, prog.NoReg, prog.NoReg, in.Imm
			if args := f.Args(in); len(args) >= 2 {
				o.a, o.b = args[0], args[1]
			}
			o.y = int64(periodicMagic(in.Off))
		case prog.OpSubPtr:
			o.code = opSubPtr
		case prog.OpSubRelease:
			o.code = opSubRelease
		case prog.OpStripPtr:
			o.code = opStripPtr
		case prog.OpRetagPtr:
			o.code = opRetagPtr
		case prog.OpPtrMetaCopy, prog.OpPtrMetaLoad, prog.OpPtrMetaStore:
			o.code, o.x = opNop, in.Off
			if meta {
				o.code = opPtrMetaCopy + opcode(in.Op-prog.OpPtrMetaCopy)
			}
		default:
			o.code = opInvalid
		}
		ops[pc] = o
	}
	ops[n] = op{code: opEnd}
}

// linked returns instruction pc's entry in its function's link table, -1
// when the function has none.
func linked(targets []int32, pc int) int64 {
	if targets == nil {
		return -1
	}
	return int64(targets[pc])
}

// fuse turns the heads of superinstruction groups in one function's ops
// (sentinel included) into superinstructions. Only codes change: every op
// keeps its operands, so tails stay runnable on their own.
func fuse(ops []op) {
	for pc := 0; pc+1 < len(ops); pc++ {
		o, next := &ops[pc], &ops[pc+1] // next may be the sentinel, which fuses with nothing
		switch o.code {
		case opConst:
			switch next.code {
			case opAdd:
				o.code, o.n = opConstAdd, 2
				if ops[pc+2].code == opBr {
					o.code, o.n = opLatch, 3
				}
			case opSub:
				o.code, o.n = opConstSub, 2
			case opMul:
				o.code, o.n = opConstMul, 2
			case opAnd:
				o.code, o.n = opConstAnd, 2
			}
		case opSGe, opSLt, opEq:
			if next.code == opCondBr && next.a == o.dst {
				o.n = 2
				switch o.code {
				case opSGe:
					o.code = opSGeBr
				case opSLt:
					o.code = opSLtBr
				case opEq:
					o.code = opEqBr
				}
			}
		case opGEP:
			switch next.code {
			case opLoad:
				o.code, o.n = opGEPLoad, 2
			case opStore:
				o.code, o.n = opGEPStore, 2
			case opCheck:
				switch ops[pc+2].code {
				case opLoad:
					o.code, o.n = opGEPCheckLoad, 3
				case opStore:
					o.code, o.n = opGEPCheckStore, 3
				}
			}
		case opCheck, opPeriodic:
			load, store := opCheckLoad, opCheckStore
			if o.code == opPeriodic {
				load, store = opPeriodicLoad, opPeriodicStore
			}
			switch next.code {
			case opLoad:
				o.code, o.n = load, 2
			case opStore:
				o.code, o.n = store, 2
			}
		}
	}
}

// Superinstructions decodes p as a machine running it under profile does
// (no check observer) and counts the superinstructions formed, by name.
// Every superinstruction is listed, formed or not, so tests can show that
// a corpus exercises each one.
func Superinstructions(p *prog.Program, profile rt.Profile) map[string]int {
	m := &Machine{link: p.Link(), trackMeta: profile.PtrMeta}
	m.decode(&Resources{})
	counts := make(map[string]int)
	for _, name := range superNames {
		if name != "" {
			counts[name] = 0
		}
	}
	for _, f := range m.code {
		for i := range f.ops {
			if name := superNames[f.ops[i].code]; name != "" {
				counts[name]++
			}
		}
	}
	return counts
}

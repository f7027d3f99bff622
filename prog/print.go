package prog

import (
	"fmt"
	"strings"
)

// opNames maps opcodes to their mnemonic.
var opNames = [...]string{
	OpInvalid:       "invalid",
	OpConst:         "const",
	OpMov:           "mov",
	OpBin:           "bin",
	OpCmp:           "cmp",
	OpBr:            "br",
	OpCondBr:        "condbr",
	OpAlloca:        "alloca",
	OpMalloc:        "malloc",
	OpFree:          "free",
	OpLoad:          "load",
	OpStore:         "store",
	OpGEP:           "gep",
	OpGlobalAddr:    "globaladdr",
	OpCall:          "call",
	OpCallExternal:  "callext",
	OpLibc:          "libc",
	OpParFor:        "parfor",
	OpRet:           "ret",
	OpCheckAccess:   "check",
	OpCheckPeriodic: "checkperiodic",
	OpSubPtr:        "subptr",
	OpSubRelease:    "subrelease",
	OpStripPtr:      "strip",
	OpRetagPtr:      "retag",
	OpPtrMetaCopy:   "pmcopy",
	OpPtrMetaLoad:   "pmload",
	OpPtrMetaStore:  "pmstore",
}

var binNames = map[BinOp]string{
	BinAdd: "add", BinSub: "sub", BinMul: "mul", BinDiv: "div", BinRem: "rem",
	BinAnd: "and", BinOr: "or", BinXor: "xor", BinShl: "shl", BinShr: "shr",
}

var predNames = map[CmpPred]string{
	CmpEq: "eq", CmpNe: "ne", CmpSLt: "slt", CmpSLe: "sle", CmpSGt: "sgt",
	CmpSGe: "sge", CmpULt: "ult", CmpULe: "ule", CmpUGt: "ugt", CmpUGe: "uge",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// format renders one of f's instructions in a compact assembly-like
// syntax.
func (f *Func) format(i *Instr) string {
	var b strings.Builder
	if i.Dst != NoReg {
		fmt.Fprintf(&b, "r%d = ", i.Dst)
	}
	switch i.Op {
	case OpConst:
		fmt.Fprintf(&b, "const %d", i.Imm)
	case OpMov:
		fmt.Fprintf(&b, "mov r%d", i.A)
	case OpBin:
		fmt.Fprintf(&b, "%s r%d, r%d", binNames[BinOp(i.X)], i.A, i.B)
	case OpCmp:
		fmt.Fprintf(&b, "cmp.%s r%d, r%d", predNames[CmpPred(i.X)], i.A, i.B)
	case OpBr:
		fmt.Fprintf(&b, "br @%d", i.Imm)
	case OpCondBr:
		fmt.Fprintf(&b, "if r%d goto @%d", i.A, i.Imm)
	case OpAlloca:
		fmt.Fprintf(&b, "alloca %s (%d bytes)", f.Type(i), i.Size)
	case OpMalloc:
		if i.A != NoReg {
			fmt.Fprintf(&b, "malloc r%d", i.A)
		} else {
			fmt.Fprintf(&b, "malloc %d", i.Size)
		}
	case OpFree:
		fmt.Fprintf(&b, "free r%d", i.A)
	case OpLoad:
		fmt.Fprintf(&b, "load%d [r%d+%d]", i.Size, i.A, i.Off)
	case OpStore:
		fmt.Fprintf(&b, "store%d [r%d+%d], r%d", i.Size, i.A, i.Off, i.B)
	case OpGEP:
		if i.B != NoReg {
			fmt.Fprintf(&b, "gep r%d + %d + r%d*%d", i.A, i.Off, i.B, i.Imm)
		} else {
			fmt.Fprintf(&b, "gep r%d + %d", i.A, i.Off)
		}
		if sym := f.Sym(i); sym != "" {
			fmt.Fprintf(&b, " ; .%s", sym)
		}
	case OpGlobalAddr:
		fmt.Fprintf(&b, "globaladdr %s", f.Sym(i))
	case OpCall, OpCallExternal, OpLibc:
		fmt.Fprintf(&b, "%s %s(", i.Op, f.Sym(i))
		for n, a := range f.Args(i) {
			if n > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "r%d", a)
		}
		b.WriteString(")")
	case OpParFor:
		fmt.Fprintf(&b, "parfor %s [r%d, r%d) x%d", f.Sym(i), i.A, i.B, i.Imm)
	case OpRet:
		if i.A != NoReg {
			fmt.Fprintf(&b, "ret r%d", i.A)
		} else {
			b.WriteString("ret")
		}
	case OpCheckAccess:
		kind := "r"
		if i.Has(FlagWrite) {
			kind = "w"
		}
		if i.B != NoReg {
			fmt.Fprintf(&b, "check.%s [r%d+%d, +r%d)", kind, i.A, i.Off, i.B)
		} else {
			fmt.Fprintf(&b, "check.%s [r%d+%d, +%d)", kind, i.A, i.Off, i.Size)
		}
	case OpCheckPeriodic:
		kind := "r"
		if i.Has(FlagWrite) {
			kind = "w"
		}
		args := f.Args(i)
		fmt.Fprintf(&b, "checkperiodic.%s ptr=r%d iv=r%d lim=r%d start=%d mod=%d step=%d elem=%d",
			kind, args[0], args[1], args[2], i.Imm, i.Off, i.X, i.Size)
	case OpSubPtr:
		fmt.Fprintf(&b, "subptr r%d [%d, +%d)", i.A, i.Off, i.Size)
	case OpSubRelease:
		fmt.Fprintf(&b, "subrelease r%d", i.A)
	case OpStripPtr:
		fmt.Fprintf(&b, "strip r%d", i.A)
	case OpRetagPtr:
		fmt.Fprintf(&b, "retag r%d with r%d", i.A, i.B)
	case OpPtrMetaCopy:
		fmt.Fprintf(&b, "pmcopy r%d", i.A)
	case OpPtrMetaLoad:
		fmt.Fprintf(&b, "pmload [r%d+%d]", i.A, i.Off)
	case OpPtrMetaStore:
		fmt.Fprintf(&b, "pmstore [r%d+%d], r%d", i.A, i.Off, i.B)
	default:
		fmt.Fprintf(&b, "%s", i.Op)
	}
	if i.Flags&FlagStaticSafe != 0 {
		b.WriteString(" !safe")
	}
	if i.Flags&FlagSubObject != 0 {
		b.WriteString(" !sub")
	}
	if i.Flags&FlagTracked != 0 {
		b.WriteString(" !tracked")
	}
	return b.String()
}

// Dump renders a function as annotated assembly for debugging.
func (f *Func) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(%d params, %d regs):\n", f.Name, f.NumParams, f.NumRegs)
	for pc := range f.Code {
		fmt.Fprintf(&b, "  @%-4d %s\n", pc, f.format(&f.Code[pc]))
	}
	for li, l := range f.Loops {
		fmt.Fprintf(&b, "  ; loop %d: head[%d,%d) body[%d,%d) latch..%d iv=r%d start=%s limit=%s step=%d\n",
			li, l.HeadStart, l.HeadEnd, l.BodyStart, l.BodyEnd, l.LatchEnd, l.IndVar, l.Start, l.Limit, l.Step)
	}
	return b.String()
}

// Dump renders the whole program.
func (p *Program) Dump() string {
	var b strings.Builder
	for _, g := range p.Globals {
		fmt.Fprintf(&b, "global %s %s", g.Name, g.Type)
		if g.AddressTaken {
			b.WriteString(" !addrtaken")
		}
		b.WriteString("\n")
	}
	for _, name := range p.Order {
		b.WriteString(p.Funcs[name].Dump())
	}
	return b.String()
}

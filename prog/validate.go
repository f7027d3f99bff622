package prog

import (
	"errors"
	"fmt"

	"cecsan/internal/alloc"
)

// Validate checks a freshly built (uninstrumented) program for structural
// errors: dangling branch targets, undefined call targets and globals,
// malformed access sizes, arity mismatches, side-table references out of
// range, and hand-authored instrumentation opcodes. It returns all problems joined into one error.
func Validate(p *Program) error {
	var errs []error
	addf := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	entry, ok := p.Funcs[p.Entry]
	if !ok {
		addf("prog: entry function %q not defined", p.Entry)
	} else if entry.NumParams != 0 {
		addf("prog: entry function %q must take no parameters, has %d", p.Entry, entry.NumParams)
	}

	globals := make(map[string]bool, len(p.Globals))
	for _, g := range p.Globals {
		if globals[g.Name] {
			addf("prog: global %q declared twice", g.Name)
		}
		globals[g.Name] = true
		if g.Type == nil {
			addf("prog: global %q has no type", g.Name)
		} else if g.InitBytes != nil && int64(len(g.InitBytes)) > g.Type.Size() {
			addf("prog: global %q init bytes (%d) exceed type size (%d)", g.Name, len(g.InitBytes), g.Type.Size())
		}
	}

	for _, name := range p.Order {
		f := p.Funcs[name]
		validateFunc(p, f, globals, addf)
	}
	return errors.Join(errs...)
}

func validateFunc(p *Program, f *Func, globals map[string]bool, addf func(string, ...any)) {
	n := len(f.Code)
	if n == 0 {
		addf("prog: %s: empty function", f.Name)
		return
	}
	if last := f.Code[n-1].Op; last != OpRet && last != OpBr {
		addf("prog: %s: function does not end in a terminator", f.Name)
	}

	checkReg := func(pc int, what string, r Reg, allowNone bool) {
		if r == NoReg {
			if !allowNone {
				addf("prog: %s@%d: missing %s register", f.Name, pc, what)
			}
			return
		}
		if r < 0 || int(r) >= f.NumRegs {
			addf("prog: %s@%d: %s register r%d out of range [0,%d)", f.Name, pc, what, r, f.NumRegs)
		}
	}
	checkTarget := func(pc int, t int64) {
		if t < 0 || t >= int64(n) {
			addf("prog: %s@%d: branch target %d out of range [0,%d)", f.Name, pc, t, n)
		}
	}
	checkSize := func(pc int, s int64) {
		switch s {
		case 1, 2, 4, 8:
		default:
			addf("prog: %s@%d: access size %d not in {1,2,4,8}", f.Name, pc, s)
		}
	}

	for pc := range f.Code {
		in := &f.Code[pc]
		if in.Ref > uint32(len(f.Refs)) {
			addf("prog: %s@%d: ref %d out of range [0,%d]", f.Name, pc, in.Ref, len(f.Refs))
			continue
		}
		if at := int(in.ArgsAt); at != 0 && (at > len(f.ArgPool) || f.ArgPool[at-1] < 0 || int(f.ArgPool[at-1]) > len(f.ArgPool)-at) {
			addf("prog: %s@%d: argument list at %d out of range of a %d-register pool", f.Name, pc, at, len(f.ArgPool))
			continue
		}
		sym, args := f.Sym(in), f.Args(in)
		switch in.Op {
		case OpConst:
			checkReg(pc, "dst", in.Dst, false)
		case OpMov:
			checkReg(pc, "dst", in.Dst, false)
			checkReg(pc, "src", in.A, false)
		case OpBin:
			checkReg(pc, "dst", in.Dst, false)
			checkReg(pc, "lhs", in.A, false)
			checkReg(pc, "rhs", in.B, false)
			if BinOp(in.X) < BinAdd || BinOp(in.X) > BinShr {
				addf("prog: %s@%d: invalid binop %d", f.Name, pc, in.X)
			}
		case OpCmp:
			checkReg(pc, "dst", in.Dst, false)
			checkReg(pc, "lhs", in.A, false)
			checkReg(pc, "rhs", in.B, false)
			if CmpPred(in.X) < CmpEq || CmpPred(in.X) > CmpUGe {
				addf("prog: %s@%d: invalid predicate %d", f.Name, pc, in.X)
			}
		case OpBr:
			checkTarget(pc, in.Imm)
		case OpCondBr:
			checkReg(pc, "cond", in.A, false)
			checkTarget(pc, in.Imm)
		case OpAlloca:
			checkReg(pc, "dst", in.Dst, false)
			if f.Type(in) == nil {
				addf("prog: %s@%d: alloca without type", f.Name, pc)
			}
		case OpMalloc:
			checkReg(pc, "dst", in.Dst, false)
			checkReg(pc, "size", in.A, true)
			if in.A == NoReg && in.Size <= 0 {
				addf("prog: %s@%d: malloc with non-positive constant size %d", f.Name, pc, in.Size)
			}
		case OpFree:
			checkReg(pc, "ptr", in.A, false)
		case OpLoad:
			checkReg(pc, "dst", in.Dst, false)
			checkReg(pc, "ptr", in.A, false)
			checkSize(pc, in.Size)
		case OpStore:
			checkReg(pc, "ptr", in.A, false)
			checkReg(pc, "val", in.B, false)
			checkSize(pc, in.Size)
		case OpGEP:
			checkReg(pc, "dst", in.Dst, false)
			checkReg(pc, "base", in.A, false)
			checkReg(pc, "index", in.B, true)
		case OpGlobalAddr:
			checkReg(pc, "dst", in.Dst, false)
			if !globals[sym] {
				addf("prog: %s@%d: undefined global %q", f.Name, pc, sym)
			}
		case OpCall:
			checkReg(pc, "dst", in.Dst, false)
			callee, ok := p.Funcs[sym]
			if !ok {
				addf("prog: %s@%d: undefined function %q", f.Name, pc, sym)
			} else if len(args) != callee.NumParams {
				addf("prog: %s@%d: call %q with %d args, want %d", f.Name, pc, sym, len(args), callee.NumParams)
			}
			for _, a := range args {
				checkReg(pc, "arg", a, false)
			}
		case OpCallExternal, OpLibc:
			checkReg(pc, "dst", in.Dst, false)
			if sym == "" {
				addf("prog: %s@%d: call without symbol", f.Name, pc)
			}
			for _, a := range args {
				checkReg(pc, "arg", a, false)
			}
		case OpParFor:
			checkReg(pc, "lo", in.A, false)
			checkReg(pc, "hi", in.B, false)
			callee, ok := p.Funcs[sym]
			if !ok {
				addf("prog: %s@%d: undefined parfor body %q", f.Name, pc, sym)
			} else if callee.NumParams != 1 {
				addf("prog: %s@%d: parfor body %q must take 1 param, has %d", f.Name, pc, sym, callee.NumParams)
			}
			// The main thread holds thread id 0, so a region has every other
			// stack of the stack region for its workers.
			if in.Imm < 1 || in.Imm > int64(alloc.MaxThreads-1) {
				addf("prog: %s@%d: parfor thread count %d out of range [1,%d]", f.Name, pc, in.Imm, alloc.MaxThreads-1)
			}
		case OpRet:
			checkReg(pc, "val", in.A, true)
		case OpCheckAccess, OpCheckPeriodic, OpSubPtr, OpSubRelease, OpStripPtr, OpRetagPtr,
			OpPtrMetaCopy, OpPtrMetaLoad, OpPtrMetaStore:
			addf("prog: %s@%d: instrumentation opcode %d in hand-authored program", f.Name, pc, in.Op)
		default:
			addf("prog: %s@%d: invalid opcode %d", f.Name, pc, in.Op)
		}
	}

	for li, l := range f.Loops {
		if l.HeadStart < 0 || l.HeadStart > l.HeadEnd || l.HeadEnd > l.BodyStart ||
			l.BodyStart > l.BodyEnd || l.BodyEnd > l.LatchEnd || l.LatchEnd > n {
			addf("prog: %s: loop %d has inconsistent ranges %+v", f.Name, li, l)
		}
	}
}

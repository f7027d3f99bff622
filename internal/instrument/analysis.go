// Package instrument implements the compile-time half of every sanitizer in
// this repository: the analogue of CECSan's LTO instrumentation pass (§III).
//
// Apply rewrites a copy of a program according to a sanitizer's
// rt.Profile: it classifies stack and global objects as safe or unsafe
// (§II.C.3), inserts dereference checks, sub-object narrowing (§II.D) and
// per-pointer metadata propagation (SoftBound), and then runs the §II.F
// optimization passes (redundant-check elimination, loop-invariant check
// relocation, monotonic check grouping, and type-based check removal).
package instrument

import (
	"cecsan/prog"
)

// objInfo is the pass's knowledge about what a register points at, the
// input to §II.F.2's type-based check removal: "use type information to
// ascertain the memory range of a pointer during compilation".
type objInfo struct {
	// known is true when the register provably points at the start of a
	// region of exactly size bytes.
	known bool
	size  int64
	// heap marks heap-rooted regions. Static in-bounds proofs never remove
	// checks on them: a heap object can be freed between the allocation and
	// the access, so dropping the check would silently drop use-after-free
	// detection. Stack objects are alive for their whole defining function
	// and globals are immortal, so spatial proofs suffice there.
	heap bool
}

// funcAnalysis holds per-function static facts shared by the passes. Its
// tables are indexed by register and reused across Apply calls.
type funcAnalysis struct {
	// defCount[r] is the number of instructions assigning r. Only
	// single-assignment registers carry object info (a cheap SSA check).
	defCount []int32

	// info[r] is the pointed-at region for single-assignment registers.
	info []objInfo

	// aliasRootAlloca[r] is the alloca instruction index r derives from
	// (directly or through Mov/GEP chains), -1 for none or unknown;
	// aliasRootGlobal[r] is the global it derives from: an index into
	// Globals, noGlobal, or unknownGlobal for an address of a symbol the
	// program does not declare.
	aliasRootAlloca []int32
	aliasRootGlobal []int32
}

const (
	noGlobal      = -1
	unknownGlobal = -2
)

// indexGlobals maps each global's name to its index in p.Globals; the
// last of duplicate names wins.
func (s *scratch) indexGlobals(p *prog.Program) {
	for i := range p.Globals {
		s.globalIdx[p.Globals[i].Name] = int32(i)
	}
}

// globalRoot is the aliasRootGlobal value of an address of symbol sym.
func (s *scratch) globalRoot(sym string) int32 {
	if sym == "" {
		return noGlobal
	}
	if gi, ok := s.globalIdx[sym]; ok {
		return gi
	}
	return unknownGlobal
}

// analyzeAll analyzes every function of p, in Order, into the scratch's
// reusable analyses. The passes read only these facts of the source code,
// so global classification and instrumentation share them.
func (s *scratch) analyzeAll(p *prog.Program) []funcAnalysis {
	for len(s.analyses) < len(p.Order) {
		s.analyses = append(s.analyses, funcAnalysis{})
	}
	as := s.analyses[:len(p.Order)]
	for i, name := range p.Order {
		s.analyze(&as[i], p.Funcs[name], p.Globals)
	}
	return as
}

// analyze computes the static facts for one function into a.
func (s *scratch) analyze(a *funcAnalysis, f *prog.Func, globals []prog.GlobalSpec) {
	a.defCount = zeroed(a.defCount, f.NumRegs)
	a.info = zeroed(a.info, f.NumRegs)
	a.aliasRootAlloca = zeroed(a.aliasRootAlloca, f.NumRegs)
	a.aliasRootGlobal = zeroed(a.aliasRootGlobal, f.NumRegs)
	for r := range a.aliasRootAlloca {
		a.aliasRootAlloca[r] = -1
		a.aliasRootGlobal[r] = noGlobal
	}
	// Parameters count as definitions (values arrive from the caller).
	for r := 0; r < f.NumParams; r++ {
		a.defCount[r]++
	}
	for i := range f.Code {
		if dst := f.Code[i].Dst; dst != prog.NoReg {
			a.defCount[dst]++
		}
	}

	// Object info, forward pass; only single-assignment registers keep it.
	set := func(r prog.Reg, oi objInfo) {
		if r != prog.NoReg && a.defCount[r] == 1 {
			a.info[r] = oi
		}
	}
	root := func(r prog.Reg) (int32, int32) {
		if r == prog.NoReg {
			return -1, noGlobal
		}
		return a.aliasRootAlloca[r], a.aliasRootGlobal[r]
	}
	setRoot := func(r prog.Reg, ai, g int32) {
		if r != prog.NoReg && a.defCount[r] == 1 {
			a.aliasRootAlloca[r] = ai
			a.aliasRootGlobal[r] = g
		}
	}

	for i := range f.Code {
		in := &f.Code[i]
		switch in.Op {
		case prog.OpAlloca:
			set(in.Dst, objInfo{known: true, size: in.Size})
			setRoot(in.Dst, int32(i), noGlobal)
		case prog.OpMalloc:
			// Only constant-size allocations have a compile-time range, and
			// heap provenance disqualifies the region from check removal.
			if in.A == prog.NoReg {
				set(in.Dst, objInfo{known: true, size: in.Size, heap: true})
			}
		case prog.OpGlobalAddr:
			g := s.globalRoot(f.Sym(in))
			if g >= 0 {
				set(in.Dst, objInfo{known: true, size: globals[g].Type.Size()})
			}
			setRoot(in.Dst, -1, g)
		case prog.OpMov:
			if in.A != prog.NoReg && a.defCount[in.A] == 1 {
				set(in.Dst, a.info[in.A])
			}
			ai, g := root(in.A)
			setRoot(in.Dst, ai, g)
		case prog.OpGEP:
			// A statically safe GEP (§II.F.2) yields a pointer to a region
			// of in.Size bytes (field) or one element (const array index).
			if in.Has(prog.FlagStaticSafe) {
				sz := in.Size
				if t := f.Type(in); sz == 0 && t != nil {
					sz = t.Size()
				}
				// Provenance: the derived region is heap-rooted unless the
				// base is provably an alloca or global.
				heapRooted := true
				if a.aliasRootAlloca[in.A] >= 0 || a.aliasRootGlobal[in.A] != noGlobal {
					heapRooted = false
				} else if in.A != prog.NoReg && a.defCount[in.A] == 1 && a.info[in.A].known {
					heapRooted = a.info[in.A].heap
				}
				if sz > 0 {
					set(in.Dst, objInfo{known: true, size: sz, heap: heapRooted})
				}
			}
			ai, g := root(in.A)
			setRoot(in.Dst, ai, g)
		}
	}
}

// staticallySafeAccess reports whether the access [off, off+size) through
// register r is provably in-bounds of r's region: the §II.F.2 condition for
// removing the check.
func (a *funcAnalysis) staticallySafeAccess(r prog.Reg, off, size int64) bool {
	if r == prog.NoReg || a.defCount[r] != 1 {
		return false
	}
	oi := a.info[r]
	return oi.known && !oi.heap && off >= 0 && off+size <= oi.size
}

// classifyStackObjects decides, per §II.C.3, which allocas are "unsafe" and
// need metadata: objects whose address escapes (passed to calls, stored to
// memory, freed) or that are accessed through a pointer that cannot be
// statically proven in-bounds. Safe scalars accessed directly through the
// stack pointer stay untracked. It returns tracked[i] per instruction
// index, true for the allocas that need metadata.
func (s *scratch) classifyStackObjects(f *prog.Func, a *funcAnalysis) []bool {
	s.tracked = zeroed(s.tracked, len(f.Code))
	tracked := s.tracked
	unsafeRoot := func(r prog.Reg) {
		if r == prog.NoReg {
			return
		}
		if ai := a.aliasRootAlloca[r]; ai >= 0 {
			tracked[ai] = true
		}
	}
	for i := range f.Code {
		in := &f.Code[i]
		switch in.Op {
		case prog.OpCall, prog.OpLibc, prog.OpCallExternal:
			for _, arg := range f.Args(in) {
				unsafeRoot(arg)
			}
		case prog.OpParFor:
			unsafeRoot(in.A)
			unsafeRoot(in.B)
		case prog.OpStore:
			// Storing a derived pointer value: the address escapes.
			unsafeRoot(in.B)
			if !a.staticallySafeAccess(in.A, in.Off, in.Size) {
				unsafeRoot(in.A)
			}
		case prog.OpLoad:
			if !a.staticallySafeAccess(in.A, in.Off, in.Size) {
				unsafeRoot(in.A)
			}
		case prog.OpFree:
			unsafeRoot(in.A)
		case prog.OpRet:
			// Returning a pointer to a local: escapes (use-after-return).
			unsafeRoot(in.A)
		case prog.OpGEP:
			if !in.Has(prog.FlagStaticSafe) {
				unsafeRoot(in.A)
			}
		}
	}
	return tracked
}

// classifyGlobals marks globals whose address is used unsafely anywhere in
// the program, augmenting the author-declared AddressTaken flags, so that
// only unsafe globals pay for GPT indirection (§II.C.3). It returns
// unsafe[i] per index into p.Globals, set at the index globalIdx names.
func (s *scratch) classifyGlobals(p *prog.Program, as []funcAnalysis) []bool {
	s.unsafe = zeroed(s.unsafe, len(p.Globals))
	unsafe := s.unsafe
	for _, g := range p.Globals {
		unsafe[s.globalIdx[g.Name]] = g.AddressTaken
	}
	for fi, name := range p.Order {
		f := p.Funcs[name]
		a := &as[fi]
		mark := func(r prog.Reg) {
			if r == prog.NoReg {
				return
			}
			if g := a.aliasRootGlobal[r]; g >= 0 {
				unsafe[g] = true
			}
		}
		for i := range f.Code {
			in := &f.Code[i]
			switch in.Op {
			case prog.OpCall, prog.OpLibc, prog.OpCallExternal:
				for _, arg := range f.Args(in) {
					mark(arg)
				}
			case prog.OpStore:
				mark(in.B)
				if !a.staticallySafeAccess(in.A, in.Off, in.Size) {
					mark(in.A)
				}
			case prog.OpLoad:
				if !a.staticallySafeAccess(in.A, in.Off, in.Size) {
					mark(in.A)
				}
			case prog.OpFree, prog.OpRet:
				mark(in.A)
			case prog.OpGEP:
				if !in.Has(prog.FlagStaticSafe) {
					mark(in.A)
				}
			}
		}
	}
	return unsafe
}

package instrument

import (
	"cecsan/internal/rt"
	"cecsan/prog"
)

// DefaultCheckStep is the §II.F.1 monotonic grouping constant ("default
// parameter is 5").
const DefaultCheckStep = 5

// Config projects a profile onto the fields Apply reads: the check and
// tracking switches, the four optimizations, RedzoneBased when the
// loop-invariant optimization consults it, and CheckStep when the monotonic
// one does. Every other field is zeroed. Two profiles with equal configs
// instrument every program identically, which is why the engine keys its
// cache by Config (HWASan and ASan place the same checks; CECSan and
// CECSan-hardened share one pass).
func Config(p rt.Profile) rt.Profile {
	c := rt.Profile{
		CheckLoads:       p.CheckLoads,
		CheckStores:      p.CheckStores,
		SubObject:        p.SubObject,
		PtrMeta:          p.PtrMeta,
		TrackStack:       p.TrackStack,
		TrackGlobals:     p.TrackGlobals,
		OptRedundant:     p.OptRedundant,
		OptLoopInvariant: p.OptLoopInvariant,
		OptMonotonic:     p.OptMonotonic,
		OptTypeBased:     p.OptTypeBased,
	}
	if p.OptLoopInvariant {
		c.RedzoneBased = p.RedzoneBased
	}
	if p.OptMonotonic {
		c.CheckStep = p.CheckStep
	}
	return c
}

// Apply clones the program and instruments it for the given profile,
// returning the instrumented copy. The original is not modified. Only
// Config(profile) shapes the output. The copy shares the original's global
// table unless global tracking marks another global address-taken, and its
// code is stored exact-size.
func Apply(p *prog.Program, profile rt.Profile) *prog.Program {
	return apply(p, Config(profile))
}

// apply is Apply without the projection onto Config.
func apply(p *prog.Program, profile rt.Profile) *prog.Program {
	if profile.CheckStep <= 0 {
		profile.CheckStep = DefaultCheckStep
	}
	out := p.Clone()

	// Whole-program view first (the LTO vantage point, §II.E): classify
	// globals across all functions.
	if profile.TrackGlobals {
		unsafeGlobals := classifyGlobals(out)
		shared := true
		for i := range out.Globals {
			g := &out.Globals[i]
			if g.AddressTaken == unsafeGlobals[g.Name] {
				continue
			}
			if shared {
				out.Globals = append(make([]prog.GlobalSpec, 0, len(out.Globals)), out.Globals...)
				g, shared = &out.Globals[i], false
			}
			g.AddressTaken = unsafeGlobals[g.Name]
		}
	}
	globalSizes := make(map[string]int64, len(out.Globals))
	for _, g := range out.Globals {
		globalSizes[g.Name] = g.Type.Size()
	}

	for _, name := range out.Order {
		f := out.Funcs[name]
		instrumentFunc(f, profile, globalSizes)
		if profile.OptRedundant {
			eliminateRedundantChecks(f)
		}
		if profile.OptLoopInvariant {
			hoistInvariantChecks(f, profile.RedzoneBased)
		}
		if profile.OptMonotonic {
			groupMonotonicChecks(f, profile.CheckStep)
		}
	}
	out.Compact()
	return out
}

// rewriter rebuilds a function's code with insertions/removals while
// remapping branch targets and loop ranges.
type rewriter struct {
	f       *prog.Func
	out     []prog.Instr
	idxMap  []int // old index -> new index of the group start
	fromOld []bool
}

func newRewriter(f *prog.Func) *rewriter {
	return &rewriter{
		f:      f,
		out:    make([]prog.Instr, 0, len(f.Code)+len(f.Code)/2),
		idxMap: make([]int, len(f.Code)+1),
	}
}

// beginGroup records that old index i starts here.
func (rw *rewriter) beginGroup(i int) { rw.idxMap[i] = len(rw.out) }

// emitOld appends an instruction copied from the original code; its branch
// target (if any) will be remapped.
func (rw *rewriter) emitOld(in prog.Instr) {
	rw.out = append(rw.out, in)
	rw.fromOld = append(rw.fromOld, true)
}

// emitNew appends a pass-created instruction; branch targets (if any) are
// already final unless they are old indices, in which case the caller must
// mark them with FlagResolvedTarget semantics inverted... pass-created
// branches are never remapped.
func (rw *rewriter) emitNew(in prog.Instr) {
	rw.out = append(rw.out, in)
	rw.fromOld = append(rw.fromOld, false)
}

// finish installs the rewritten code, remapping branches, loops and alloca
// indices.
func (rw *rewriter) finish() {
	rw.idxMap[len(rw.f.Code)] = len(rw.out)
	for i := range rw.out {
		in := &rw.out[i]
		if in.Op != prog.OpBr && in.Op != prog.OpCondBr {
			continue
		}
		if rw.fromOld[i] && !in.Has(prog.FlagResolvedTarget) {
			in.Imm = int64(rw.idxMap[in.Imm])
		}
		in.Flags &^= prog.FlagResolvedTarget
	}
	for li := range rw.f.Loops {
		l := &rw.f.Loops[li]
		l.HeadStart = rw.idxMap[l.HeadStart]
		l.HeadEnd = rw.idxMap[l.HeadEnd]
		l.BodyStart = rw.idxMap[l.BodyStart]
		l.BodyEnd = rw.idxMap[l.BodyEnd]
		l.LatchEnd = rw.idxMap[l.LatchEnd]
	}
	rw.f.Code = rw.out
	rw.f.Allocas = rw.f.Allocas[:0]
	for i := range rw.f.Code {
		if rw.f.Code[i].Op == prog.OpAlloca {
			rw.f.Allocas = append(rw.f.Allocas, i)
		}
	}
}

// instrumentFunc performs the insertion pass for one function: check
// insertion (with §II.F.2 type-based removal applied inline), sub-object
// narrowing (§II.D), stack-object classification (§II.C.3) and per-pointer
// metadata propagation (SoftBound profiles).
func instrumentFunc(f *prog.Func, profile rt.Profile, globalSizes map[string]int64) {
	a := analyze(f, globalSizes)

	var trackedAllocas map[int]bool
	if profile.TrackStack {
		trackedAllocas = classifyStackObjects(f, a)
	}

	// Decide which sub-object GEPs get narrowed.
	narrow := map[int]bool{}
	var subRegs []prog.Reg
	if profile.SubObject {
		escapes := make(map[prog.Reg]bool) // returned or stored as a value
		dynamic := make(map[prog.Reg]bool) // any use that needs runtime bounds
		for i := range f.Code {
			in := &f.Code[i]
			switch in.Op {
			case prog.OpRet:
				if in.A != prog.NoReg {
					escapes[in.A] = true
				}
			case prog.OpStore:
				escapes[in.B] = true
				if !a.staticallySafeAccess(in.A, in.Off, in.Size) {
					dynamic[in.A] = true
				}
			case prog.OpLoad:
				if !a.staticallySafeAccess(in.A, in.Off, in.Size) {
					dynamic[in.A] = true
				}
			case prog.OpCall, prog.OpLibc, prog.OpCallExternal:
				for _, arg := range in.Args {
					dynamic[arg] = true
				}
			case prog.OpGEP:
				if !in.Has(prog.FlagStaticSafe) {
					dynamic[in.A] = true
				}
			case prog.OpFree:
				dynamic[in.A] = true
			}
		}
		for i := range f.Code {
			in := &f.Code[i]
			if in.Op != prog.OpGEP || !in.Has(prog.FlagSubObject) || in.Size <= 0 {
				continue
			}
			if in.Type != nil && !in.Type.IsComposite() {
				// Scalar members are covered by the object-granular check;
				// §II.D narrowing targets member buffers (Figure 3).
				continue
			}
			if escapes[in.Dst] {
				continue // keep object-granular protection for escaping members
			}
			if profile.OptTypeBased && !dynamic[in.Dst] {
				continue // every use statically in-bounds: no narrowing needed
			}
			narrow[i] = true
			subRegs = append(subRegs, in.Dst)
		}
	}

	needsCheck := func(ptr prog.Reg, off, size int64) bool {
		if profile.OptTypeBased && a.staticallySafeAccess(ptr, off, size) {
			return false
		}
		return true
	}

	rw := newRewriter(f)
	for i := range f.Code {
		in := f.Code[i]
		rw.beginGroup(i)
		switch in.Op {
		case prog.OpAlloca:
			if trackedAllocas != nil && trackedAllocas[i] {
				in.Flags |= prog.FlagTracked
			}
			rw.emitOld(in)
		case prog.OpLoad:
			if profile.CheckLoads && needsCheck(in.A, in.Off, in.Size) {
				rw.emitNew(prog.Instr{Op: prog.OpCheckAccess, A: in.A, B: prog.NoReg, Dst: prog.NoReg, Off: in.Off, Size: in.Size})
			}
			rw.emitOld(in)
			if profile.PtrMeta && in.Has(prog.FlagPtrVal) {
				rw.emitNew(prog.Instr{Op: prog.OpPtrMetaLoad, Dst: in.Dst, A: in.A, B: prog.NoReg, Off: in.Off})
			}
		case prog.OpStore:
			if profile.CheckStores && needsCheck(in.A, in.Off, in.Size) {
				rw.emitNew(prog.Instr{Op: prog.OpCheckAccess, A: in.A, B: prog.NoReg, Dst: prog.NoReg, Off: in.Off, Size: in.Size, Flags: prog.FlagWrite})
			}
			rw.emitOld(in)
			if profile.PtrMeta && in.Has(prog.FlagPtrVal) {
				rw.emitNew(prog.Instr{Op: prog.OpPtrMetaStore, A: in.A, B: in.B, Dst: prog.NoReg, Off: in.Off})
			}
		case prog.OpGEP:
			if narrow[i] {
				// Release the previous iteration's narrowed metadata (a
				// no-op on the first execution when the register is zero),
				// then create the §II.D temporary sub-object pointer.
				rw.emitNew(prog.Instr{Op: prog.OpSubRelease, A: in.Dst, Dst: prog.NoReg, B: prog.NoReg})
				rw.emitNew(prog.Instr{Op: prog.OpSubPtr, Dst: in.Dst, A: in.A, B: prog.NoReg, Off: in.Off, Size: in.Size})
			} else {
				rw.emitOld(in)
			}
		case prog.OpRet:
			// Function epilogue: clear narrowed sub-object metadata
			// (Figure 3 line 13) before returning.
			for _, r := range subRegs {
				if in.A != r {
					rw.emitNew(prog.Instr{Op: prog.OpSubRelease, A: r, Dst: prog.NoReg, B: prog.NoReg})
				}
			}
			rw.emitOld(in)
		default:
			rw.emitOld(in)
		}
	}
	rw.finish()
}

// Fuse does nothing and is kept for callers that ran it after Apply:
// superinstructions are formed when a machine decodes the program
// (internal/interp), so instrumented programs carry no fusion table.
func Fuse(*prog.Program) {}

package instrument

import (
	"sync"

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

// Apply instruments the program for the given profile and returns the
// instrumented copy. The original is not modified. Only Config(profile)
// shapes the output. The copy shares the original's function order, its
// global table unless global tracking marks another global address-taken,
// every function no pass changes, and each rewritten function's reference
// table, and its argument pool unless a pass adds an argument list; each
// rewritten function's code is stored exact-size.
func Apply(p *prog.Program, profile rt.Profile) *prog.Program {
	return apply(p, Config(profile))
}

// apply is Apply without the projection onto Config.
func apply(p *prog.Program, profile rt.Profile) *prog.Program {
	if profile.CheckStep <= 0 {
		profile.CheckStep = DefaultCheckStep
	}
	s := getScratch()
	defer s.release()
	out := &prog.Program{
		Funcs:   make([]*prog.Func, len(p.Funcs)),
		Globals: p.Globals,
		Entry:   p.Entry,
	}

	// Whole-program view first (the LTO vantage point, §II.E): analyze
	// every function once, then classify globals across all of them.
	s.indexGlobals(p)
	as := s.analyzeAll(p)
	if profile.TrackGlobals {
		unsafe := s.classifyGlobals(p, as)
		shared := true
		for i := range out.Globals {
			g := &out.Globals[i]
			u := unsafe[s.globalIdx[g.Name]]
			if g.AddressTaken == u {
				continue
			}
			if shared {
				out.Globals = append(make([]prog.GlobalSpec, 0, len(out.Globals)), out.Globals...)
				g, shared = &out.Globals[i], false
			}
			g.AddressTaken = u
		}
	}

	for i, src := range p.Funcs {
		f := s.begin(src)
		s.instrumentFunc(f, &as[i], profile)
		if profile.OptRedundant {
			s.eliminateRedundantChecks(f)
		}
		if profile.OptLoopInvariant {
			s.hoistInvariantChecks(f, profile.RedzoneBased)
		}
		if profile.OptMonotonic {
			s.groupMonotonicChecks(f, profile.CheckStep)
		}
		out.Funcs[i] = s.result(src, f)
	}
	return out
}

// scratch is the working space of one Apply call: the rewriter's double
// buffers, one analysis per function, and the dense per-register and per-pc
// tables of the passes. Apply takes one from scratches and returns it, so
// instrumenting a program allocates only what the output keeps.
type scratch struct {
	// fn is the function the passes work on: the source's code until a
	// pass rewrites it, then one of bufs.
	fn    prog.Func
	loops []prog.Loop
	// argPool is fn's argument pool once a pass has added a list to it;
	// until then (ownArgs false) fn shares the source's.
	argPool []prog.Reg
	ownArgs bool

	// bufs are the rewriter's double buffers; cur is the one fn.Code lives
	// in, -1 while it is the source's, and next the one a rewrite fills.
	bufs      [2][]prog.Instr
	cur, next int

	// The rewrite in progress: its output, old index -> new index of the
	// group start, and whether anything changed.
	out     []prog.Instr
	idxMap  []int
	changed bool

	analyses  []funcAnalysis
	globalIdx map[string]int32 // global name -> index in Globals (last wins)
	unsafe    []bool           // per global index

	tracked, narrow, drop, leaders []bool // per pc
	escapes, dynamic               regSet
	linear                         []int32 // per register + 1: pc of a linear GEP + 1
	repl                           []int32 // per pc: index into reps + 1
	reps                           []prog.Loop
	subRegs                        []prog.Reg
	seen                           []seenCheck
	hoisted                        []hoistedCheck
	loopKeys                       []checkKey
}

// scratches recycles scratch across Apply calls. A sync.Pool rather than
// a free list, so a collection drops idle scratch instead of keeping it
// live.
var scratches = sync.Pool{New: func() any { return &scratch{globalIdx: make(map[string]int32)} }}

func getScratch() *scratch { return scratches.Get().(*scratch) }

// release returns the scratch to the pool. Until its next use it still
// refers to the last program it instrumented.
func (s *scratch) release() {
	clear(s.globalIdx)
	scratches.Put(s)
}

// regSet is a dense set of registers with NoReg at slot 0.
type regSet []bool

func (rs regSet) add(r prog.Reg)      { rs[r+1] = true }
func (rs regSet) has(r prog.Reg) bool { return rs[r+1] }

// zeroed returns s resized to n elements, all zero, reusing its storage.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// begin loads src as the function the passes work on. Its code and side
// tables stay the source's until a pass changes them; its loops are
// copied, since a rewrite remaps them in place.
func (s *scratch) begin(src *prog.Func) *prog.Func {
	s.loops = append(s.loops[:0], src.Loops...)
	s.fn = prog.Func{
		Name:      src.Name,
		NumParams: src.NumParams,
		NumRegs:   src.NumRegs,
		Code:      src.Code,
		Loops:     s.loops,
		Refs:      src.Refs,
		ArgPool:   src.ArgPool,
	}
	s.cur = -1
	s.ownArgs = false
	return &s.fn
}

// appendArgs adds the argument list args to f's pool, moving the pool into
// the scratch first so the source's is never written, and returns the
// list's Instr.ArgsAt.
func (s *scratch) appendArgs(f *prog.Func, args ...prog.Reg) uint32 {
	if !s.ownArgs {
		s.argPool = append(s.argPool[:0], f.ArgPool...)
		s.ownArgs = true
	}
	var at uint32
	s.argPool, at = prog.AppendArgs(s.argPool, args...)
	f.ArgPool = s.argPool
	return at
}

// result returns the output function for src: src itself when no pass
// changed it, otherwise a copy of the working function whose code, loops
// and, when a pass extended it, argument pool are stored exact-size. The
// reference table is always the source's.
func (s *scratch) result(src, f *prog.Func) *prog.Func {
	if s.cur < 0 {
		return src
	}
	argPool := f.ArgPool
	if s.ownArgs {
		argPool = exactCopy(argPool)
	}
	return &prog.Func{
		Name:      f.Name,
		NumParams: f.NumParams,
		NumRegs:   f.NumRegs,
		Code:      exactCopy(f.Code),
		Loops:     exactCopy(f.Loops),
		Refs:      f.Refs,
		ArgPool:   argPool,
	}
}

// exactCopy returns a copy of v whose capacity equals its length, nil when
// v is empty.
func exactCopy[T any](v []T) []T {
	if len(v) == 0 {
		return nil
	}
	return append(make([]T, 0, len(v)), v...)
}

// rewrite starts rebuilding f's code with insertions/removals; finish
// installs it, remapping branch targets and loop ranges.
func (s *scratch) rewrite(f *prog.Func) {
	s.next = 0
	if s.cur == 0 {
		s.next = 1
	}
	s.out = s.bufs[s.next][:0]
	s.idxMap = zeroed(s.idxMap, len(f.Code)+1)
	s.changed = false
}

// beginGroup records that old index i starts here.
func (s *scratch) beginGroup(i int) { s.idxMap[i] = len(s.out) }

// emitOld appends an instruction copied from the original code; its branch
// target (if any) will be remapped.
func (s *scratch) emitOld(in prog.Instr) { s.out = append(s.out, in) }

// emitNew appends a pass-created instruction, which is a change. A branch
// emitted here must carry FlagResolvedTarget, so it is not remapped.
func (s *scratch) emitNew(in prog.Instr) {
	s.out = append(s.out, in)
	s.changed = true
}

// finish installs the rewritten code, remapping branches and loops. A
// rewrite that changed nothing leaves f as it was.
func (s *scratch) finish(f *prog.Func) {
	out := s.out
	s.bufs[s.next] = out // keep what appending grew
	if !s.changed {
		return
	}
	s.idxMap[len(f.Code)] = len(out)
	for i := range out {
		in := &out[i]
		if in.Op != prog.OpBr && in.Op != prog.OpCondBr {
			continue
		}
		if !in.Has(prog.FlagResolvedTarget) {
			in.Imm = int64(s.idxMap[in.Imm])
		}
		in.Flags &^= prog.FlagResolvedTarget
	}
	for li := range f.Loops {
		l := &f.Loops[li]
		l.HeadStart = s.idxMap[l.HeadStart]
		l.HeadEnd = s.idxMap[l.HeadEnd]
		l.BodyStart = s.idxMap[l.BodyStart]
		l.BodyEnd = s.idxMap[l.BodyEnd]
		l.LatchEnd = s.idxMap[l.LatchEnd]
	}
	s.cur = s.next
	f.Code = out
}

// instrumentFunc performs the insertion pass for one function: check
// insertion (with §II.F.2 type-based removal applied inline), sub-object
// narrowing (§II.D), stack-object classification (§II.C.3) and per-pointer
// metadata propagation (SoftBound profiles).
func (s *scratch) instrumentFunc(f *prog.Func, a *funcAnalysis, profile rt.Profile) {
	var tracked []bool
	if profile.TrackStack {
		tracked = s.classifyStackObjects(f, a)
	}

	// Decide which sub-object GEPs get narrowed.
	s.narrow = zeroed(s.narrow, len(f.Code))
	narrow := s.narrow
	s.subRegs = s.subRegs[:0]
	if profile.SubObject {
		s.escapes = zeroed(s.escapes, f.NumRegs+1) // returned or stored as a value
		s.dynamic = zeroed(s.dynamic, f.NumRegs+1) // any use that needs runtime bounds
		escapes, dynamic := s.escapes, s.dynamic
		for i := range f.Code {
			in := &f.Code[i]
			switch in.Op {
			case prog.OpRet:
				if in.A != prog.NoReg {
					escapes.add(in.A)
				}
			case prog.OpStore:
				escapes.add(in.B)
				if !a.staticallySafeAccess(in.A, in.Off, in.Size) {
					dynamic.add(in.A)
				}
			case prog.OpLoad:
				if !a.staticallySafeAccess(in.A, in.Off, in.Size) {
					dynamic.add(in.A)
				}
			case prog.OpCall, prog.OpLibc, prog.OpCallExternal:
				for _, arg := range f.Args(in) {
					dynamic.add(arg)
				}
			case prog.OpGEP:
				if !in.Has(prog.FlagStaticSafe) {
					dynamic.add(in.A)
				}
			case prog.OpFree:
				dynamic.add(in.A)
			}
		}
		for i := range f.Code {
			in := &f.Code[i]
			if in.Op != prog.OpGEP || !in.Has(prog.FlagSubObject) || in.Size <= 0 {
				continue
			}
			if t := f.Type(in); t != nil && !t.IsComposite() {
				// Scalar members are covered by the object-granular check;
				// §II.D narrowing targets member buffers (Figure 3).
				continue
			}
			if escapes.has(in.Dst) {
				continue // keep object-granular protection for escaping members
			}
			if profile.OptTypeBased && !dynamic.has(in.Dst) {
				continue // every use statically in-bounds: no narrowing needed
			}
			narrow[i] = true
			s.subRegs = append(s.subRegs, in.Dst)
		}
	}

	needsCheck := func(ptr prog.Reg, off, size int64) bool {
		if profile.OptTypeBased && a.staticallySafeAccess(ptr, off, size) {
			return false
		}
		return true
	}

	s.rewrite(f)
	for i := range f.Code {
		in := f.Code[i]
		s.beginGroup(i)
		switch in.Op {
		case prog.OpAlloca:
			if tracked != nil && tracked[i] && !in.Has(prog.FlagTracked) {
				in.Flags |= prog.FlagTracked
				s.changed = true
			}
			s.emitOld(in)
		case prog.OpLoad:
			if profile.CheckLoads && needsCheck(in.A, in.Off, in.Size) {
				s.emitNew(prog.Instr{Op: prog.OpCheckAccess, A: in.A, B: prog.NoReg, Dst: prog.NoReg, Off: in.Off, Size: in.Size})
			}
			s.emitOld(in)
			if profile.PtrMeta && in.Has(prog.FlagPtrVal) {
				s.emitNew(prog.Instr{Op: prog.OpPtrMetaLoad, Dst: in.Dst, A: in.A, B: prog.NoReg, Off: in.Off})
			}
		case prog.OpStore:
			if profile.CheckStores && needsCheck(in.A, in.Off, in.Size) {
				s.emitNew(prog.Instr{Op: prog.OpCheckAccess, A: in.A, B: prog.NoReg, Dst: prog.NoReg, Off: in.Off, Size: in.Size, Flags: prog.FlagWrite})
			}
			s.emitOld(in)
			if profile.PtrMeta && in.Has(prog.FlagPtrVal) {
				s.emitNew(prog.Instr{Op: prog.OpPtrMetaStore, A: in.A, B: in.B, Dst: prog.NoReg, Off: in.Off})
			}
		case prog.OpGEP:
			if narrow[i] {
				// Release the previous iteration's narrowed metadata (a
				// no-op on the first execution when the register is zero),
				// then create the §II.D temporary sub-object pointer.
				s.emitNew(prog.Instr{Op: prog.OpSubRelease, A: in.Dst, Dst: prog.NoReg, B: prog.NoReg})
				s.emitNew(prog.Instr{Op: prog.OpSubPtr, Dst: in.Dst, A: in.A, B: prog.NoReg, Off: in.Off, Size: in.Size})
			} else {
				s.emitOld(in)
			}
		case prog.OpRet:
			// Function epilogue: clear narrowed sub-object metadata
			// (Figure 3 line 13) before returning.
			for _, r := range s.subRegs {
				if in.A != r {
					s.emitNew(prog.Instr{Op: prog.OpSubRelease, A: r, Dst: prog.NoReg, B: prog.NoReg})
				}
			}
			s.emitOld(in)
		default:
			s.emitOld(in)
		}
	}
	s.finish(f)
}

// Fuse does nothing and is kept for callers that ran it after Apply:
// superinstructions are formed when a machine decodes the program
// (internal/interp), so instrumented programs carry no fusion table.
func Fuse(*prog.Program) {}

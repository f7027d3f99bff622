package instrument

import (
	"slices"

	"cecsan/prog"
)

// checkKey identifies a check for redundancy comparison.
type checkKey struct {
	ptr  prog.Reg
	off  int64
	size int64
}

// seenCheck is a check already executed in the current basic block.
type seenCheck struct {
	key   checkKey
	write bool
}

// eliminateRedundantChecks removes checks that are dominated by an identical
// (or stronger) check earlier in the same basic block with no intervening
// instruction that could change the answer — the recurring-check
// elimination CECSan shares with ASAN--'s debloating (§II.F).
//
// Invalidation rules: redefining the checked register kills its entries;
// frees, calls (which may free), sub-pointer operations and parallel regions
// kill everything. A function with nothing to drop is left as it is.
func (s *scratch) eliminateRedundantChecks(f *prog.Func) {
	leaders := s.blockLeaders(f)
	s.drop = zeroed(s.drop, len(f.Code))
	drops := 0
	seen := s.seen[:0]
	for i := range f.Code {
		in := &f.Code[i]
		if leaders[i] {
			seen = seen[:0]
		}
		switch in.Op {
		case prog.OpCheckAccess:
			if in.B != prog.NoReg { // only static-size checks participate
				break
			}
			k := checkKey{ptr: in.A, off: in.Off, size: in.Size}
			isWrite := in.Has(prog.FlagWrite)
			j := 0
			for j < len(seen) && seen[j].key != k {
				j++
			}
			if j == len(seen) {
				seen = append(seen, seenCheck{key: k, write: isWrite})
			} else if seen[j].write || !isWrite {
				s.drop[i] = true // dominated: drop the check
				drops++
			} else {
				seen[j].write = true
			}
		case prog.OpFree, prog.OpCall, prog.OpCallExternal, prog.OpLibc,
			prog.OpParFor, prog.OpSubPtr, prog.OpSubRelease:
			seen = seen[:0]
		default:
			if in.Dst != prog.NoReg {
				kept := seen[:0]
				for _, c := range seen {
					if c.key.ptr != in.Dst {
						kept = append(kept, c)
					}
				}
				seen = kept
			}
		}
	}
	s.seen = seen
	if drops == 0 {
		return
	}
	s.rewrite(f)
	for i := range f.Code {
		s.beginGroup(i)
		if !s.drop[i] {
			s.emitOld(f.Code[i])
		}
	}
	s.changed = true
	s.finish(f)
}

// blockLeaders marks the instructions that begin a basic block.
func (s *scratch) blockLeaders(f *prog.Func) []bool {
	s.leaders = zeroed(s.leaders, len(f.Code)+1)
	leaders := s.leaders
	leaders[0] = true
	for i := range f.Code {
		switch f.Code[i].Op {
		case prog.OpBr, prog.OpCondBr:
			leaders[f.Code[i].Imm] = true
			leaders[i+1] = true
		}
	}
	return leaders
}

// hoistInvariantChecks relocates checks on loop-invariant pointers out of
// loop bodies: "a single deduplicated check relocated after the loop, is
// sufficient" (§II.F.1). Redzone-based profiles may only relocate loads,
// because a hoisted store check could observe a redzone already overwritten;
// CECSan, not relying on redzones, handles both.
//
// A check is hoisted only from the body's first basic block (it provably
// executes every iteration) and only from loops containing no frees or
// calls (which could end the object's lifetime mid-loop).
func (s *scratch) hoistInvariantChecks(f *prog.Func, redzoneBased bool) {
	if len(f.Loops) == 0 {
		return
	}
	leaders := s.blockLeaders(f)

	// hoisted collects checks to emit right before old index at (the loop
	// exit target), in the order they are found.
	s.hoisted = s.hoisted[:0]
	s.drop = zeroed(s.drop, len(f.Code))

	for _, l := range f.Loops {
		if loopHasLifetimeEvents(f, l) {
			continue
		}
		s.loopKeys = s.loopKeys[:0]
		for i := l.BodyStart; i < l.BodyEnd; i++ {
			in := &f.Code[i]
			if in.Op != prog.OpCheckAccess || in.B != prog.NoReg {
				continue
			}
			if redzoneBased && in.Has(prog.FlagWrite) {
				continue
			}
			// Must be in the body's first block.
			if !inFirstBlock(leaders, l, i) {
				continue
			}
			if regRedefinedIn(f, in.A, l.HeadStart, l.LatchEnd) {
				continue
			}
			k := checkKey{ptr: in.A, off: in.Off, size: in.Size}
			s.drop[i] = true
			if slices.Contains(s.loopKeys, k) {
				continue // deduplicated
			}
			s.loopKeys = append(s.loopKeys, k)
			s.hoisted = append(s.hoisted, hoistedCheck{at: l.LatchEnd, in: *in})
		}
	}
	if len(s.hoisted) == 0 { // every dropped check is hoisted once
		return
	}

	s.rewrite(f)
	for i := range f.Code {
		s.beginGroup(i)
		s.emitHoisted(i)
		if !s.drop[i] {
			s.emitOld(f.Code[i])
		}
	}
	// Checks hoisted to the very end of the function body.
	s.beginGroup(len(f.Code))
	s.emitHoisted(len(f.Code))
	s.finish(f)
}

// hoistedCheck is a check relocated to just before old index at.
type hoistedCheck struct {
	at int
	in prog.Instr
}

// emitHoisted emits the checks hoisted to old index i.
func (s *scratch) emitHoisted(i int) {
	for _, h := range s.hoisted {
		if h.at == i {
			s.emitNew(h.in)
		}
	}
}

// inFirstBlock reports whether instruction i is in the first basic block
// of l's body, so it executes on every iteration.
func inFirstBlock(leaders []bool, l prog.Loop, i int) bool {
	for j := l.BodyStart + 1; j <= i; j++ {
		if leaders[j] {
			return false
		}
	}
	return true
}

// loopHasLifetimeEvents reports whether the loop contains an operation that
// could end an object's lifetime (free, any call) between iterations.
func loopHasLifetimeEvents(f *prog.Func, l prog.Loop) bool {
	for i := l.HeadStart; i < l.LatchEnd && i < len(f.Code); i++ {
		switch f.Code[i].Op {
		case prog.OpFree, prog.OpCall, prog.OpCallExternal, prog.OpParFor, prog.OpSubRelease:
			return true
		}
	}
	return false
}

// regRedefinedIn reports whether r is assigned anywhere in [lo, hi).
func regRedefinedIn(f *prog.Func, r prog.Reg, lo, hi int) bool {
	for i := lo; i < hi && i < len(f.Code); i++ {
		if f.Code[i].Dst == r {
			return true
		}
	}
	return false
}

// groupMonotonicChecks rewrites per-element checks on linear induction
// accesses into OpCheckPeriodic grouped checks (§II.F.1, Figure 4a): the
// scalar-evolution facts recorded by the builder identify checks whose
// pointer is base + indvar*scale with constant start and step; those fire
// only every checkStep-th iteration with a widened range.
func (s *scratch) groupMonotonicChecks(f *prog.Func, checkStep int64) {
	if len(f.Loops) == 0 {
		return
	}
	leaders := s.blockLeaders(f)
	s.repl = zeroed(s.repl, len(f.Code))
	s.reps = s.reps[:0]

	for _, l := range f.Loops {
		if !l.Start.IsConst || l.Step <= 0 || l.Step > 255 {
			continue
		}
		// Locate the limit register: ForRange always materializes it in the
		// header's compare.
		limReg := loopLimitReg(f, l)
		if limReg == prog.NoReg {
			continue
		}
		// linear[r+1] is the pc+1 of the body GEP defining r as a linear
		// induction pointer (the last such GEP), 0 for none.
		s.linear = zeroed(s.linear, f.NumRegs+1)
		for i := l.BodyStart; i < l.BodyEnd; i++ {
			in := &f.Code[i]
			if in.Op == prog.OpGEP && in.B == l.IndVar && in.Imm > 0 && in.Off == 0 &&
				!regRedefinedIn(f, in.A, l.HeadStart, l.LatchEnd) {
				s.linear[in.Dst+1] = int32(i) + 1
			}
		}
		for i := l.BodyStart; i < l.BodyEnd; i++ {
			in := &f.Code[i]
			if in.Op != prog.OpCheckAccess || in.B != prog.NoReg || in.Off != 0 {
				continue
			}
			gi := s.linear[in.A+1]
			if gi == 0 || in.Size != f.Code[gi-1].Imm {
				continue // not a contiguous element access
			}
			// Must execute every iteration: body's first block only.
			if !inFirstBlock(leaders, l, i) {
				continue
			}
			lcopy := l
			lcopy.Limit = prog.RegOperand(limReg)
			s.reps = append(s.reps, lcopy)
			s.repl[i] = int32(len(s.reps))
		}
	}
	if len(s.reps) == 0 {
		return
	}

	s.rewrite(f)
	for i := range f.Code {
		in := f.Code[i]
		s.beginGroup(i)
		ri := s.repl[i]
		if ri == 0 {
			s.emitOld(in)
			continue
		}
		l := s.reps[ri-1]
		pc := prog.Instr{
			Op:     prog.OpCheckPeriodic,
			X:      uint8(l.Step),
			Dst:    prog.NoReg,
			A:      prog.NoReg,
			B:      prog.NoReg,
			Imm:    l.Start.Const,
			Off:    l.Step * checkStep,
			Size:   in.Size,
			ArgsAt: s.appendArgs(f, in.A, l.IndVar, l.Limit.Reg),
		}
		if in.Has(prog.FlagWrite) {
			pc.Flags |= prog.FlagWrite
		}
		s.emitNew(pc)
	}
	s.finish(f)
}

// loopLimitReg finds the register the loop header compares the induction
// variable against.
func loopLimitReg(f *prog.Func, l prog.Loop) prog.Reg {
	for i := l.HeadStart; i < l.HeadEnd && i < len(f.Code); i++ {
		in := &f.Code[i]
		if in.Op == prog.OpCmp && in.A == l.IndVar {
			return in.B
		}
	}
	return prog.NoReg
}

package interp

import (
	"fmt"
	"math/bits"
	"runtime/debug"
	"sync"
	"time"

	"cecsan/internal/alloc"
	"cecsan/internal/mem"
	"cecsan/internal/rt"
	"cecsan/prog"
)

// abort carries the reason execution stopped up the simulated call stack.
// Exactly one field is set.
type abort struct {
	violation *rt.Violation
	fault     *mem.Fault
	err       error
}

// thread is one simulated thread of execution: its own stack and local
// counters, sharing the machine's memory, heap and runtime.
type thread struct {
	m      *Machine
	stack  *alloc.Stack
	budget int64

	// regArena and metaArena back call-frame register windows: a caller
	// carves the callee's [frameBase, frameBase+NumRegs), copies the
	// arguments straight into it and pops it when the call returns, so
	// frame setup is a clear of recycled memory instead of a fresh
	// allocation per call. Growth reallocates the arena, but live parent
	// frames keep their slices into the old backing array — every frame only
	// ever touches its own window, so the windows never alias. The main
	// thread borrows its arenas from the machine's Resources.
	regArena  []uint64
	metaArena []rt.PtrMeta
	frameBase int

	local Stats
}

// frame carves a zeroed register window (and, when per-pointer metadata is
// tracked, a matching metadata window) for one call frame.
func (th *thread) frame(n int) (regs []uint64, metas []rt.PtrMeta) {
	base := th.frameBase
	if base+n > len(th.regArena) {
		size := 2 * (base + n)
		if size < 256 {
			size = 256
		}
		grown := make([]uint64, size)
		copy(grown, th.regArena[:base])
		th.regArena = grown
	}
	regs = th.regArena[base : base+n : base+n]
	clear(regs)
	if th.m.trackMeta {
		if base+n > len(th.metaArena) {
			grown := make([]rt.PtrMeta, len(th.regArena))
			copy(grown, th.metaArena[:base])
			th.metaArena = grown
		}
		metas = th.metaArena[base : base+n : base+n]
		clear(metas)
	}
	th.frameBase = base + n
	return regs, metas
}

// flushStats merges the thread's counters into the machine.
func (th *thread) flushStats() {
	th.m.mergeStats(&th.local)
	th.local = Stats{}
}

// trackedObj records a metadata-carrying stack object for epilogue release.
type trackedObj struct {
	ptr  uint64
	size int64
}

// call executes function fi of the machine's decoded code in the register
// window regs (and, when per-pointer metadata is tracked, metas), which the
// caller carved with frame and filled with the arguments; the caller also
// pops the window afterwards. It returns the result value/meta or an abort.
//
// steps counts source instructions, so a superinstruction adds its length;
// the budget and the instruction counter are charged with them at every
// backedge (a branch to its own pc or earlier) and at return.
func (th *thread) call(fi int32, regs []uint64, metas []rt.PtrMeta, depth int) (uint64, rt.PtrMeta, *abort) {
	if depth > th.m.opts.MaxCallDepth {
		return 0, rt.PtrMeta{}, &abort{err: ErrCallDepth}
	}
	if th.m.aborted.Load() {
		// Interrupts also land at call entry, so loop-free recursive
		// programs still honour the watchdog.
		return 0, rt.PtrMeta{}, th.abortCause()
	}
	m := th.m
	run := m.san.Runtime
	mask := m.addrMask
	f := &m.code[fi]
	ops := f.ops

	frameMark := th.stack.Mark()
	var tracked []trackedObj
	var ab *abort
	pc := 0
	steps := int64(0)

	for {
		o := &ops[pc]
		steps += int64(o.n)
		switch o.code {
		case opNop:
		case opConst:
			regs[o.dst] = uint64(o.x)
		case opMov:
			regs[o.dst] = regs[o.a]
		case opMovMeta:
			regs[o.dst] = regs[o.a]
			metas[o.dst] = metas[o.a]
		case opAdd:
			regs[o.dst] = regs[o.a] + regs[o.b]
		case opSub:
			regs[o.dst] = regs[o.a] - regs[o.b]
		case opMul:
			regs[o.dst] = regs[o.a] * regs[o.b]
		case opDiv, opRem:
			a, b := int64(regs[o.a]), int64(regs[o.b])
			if b == 0 {
				what := "division"
				if o.code == opRem {
					what = "remainder"
				}
				ab = &abort{err: fmt.Errorf("interp: SIGFPE: %s by zero in %s@%d", what, f.name, pc)}
				goto fail
			}
			if o.code == opDiv {
				regs[o.dst] = uint64(a / b)
			} else {
				regs[o.dst] = uint64(a % b)
			}
		case opAnd:
			regs[o.dst] = regs[o.a] & regs[o.b]
		case opOr:
			regs[o.dst] = regs[o.a] | regs[o.b]
		case opXor:
			regs[o.dst] = regs[o.a] ^ regs[o.b]
		case opShl:
			regs[o.dst] = regs[o.a] << (regs[o.b] & 63)
		case opShr:
			regs[o.dst] = regs[o.a] >> (regs[o.b] & 63)
		case opAddMeta, opSubMeta:
			if o.code == opAddMeta {
				regs[o.dst] = regs[o.a] + regs[o.b]
			} else {
				regs[o.dst] = regs[o.a] - regs[o.b]
			}
			// Pointer ± integer keeps the operand's per-pointer metadata:
			// the derived pointer inherits the base object's bounds and key
			// (SoftBound's pointer-arithmetic rule), so an interior pointer
			// built by register arithmetic carries provenance into
			// Free/Check. Scalar operands carry zero metadata, so plain
			// integer arithmetic stays metadata-free.
			if ma := metas[o.a]; ma.Valid() {
				metas[o.dst] = ma
			} else if mb := metas[o.b]; mb.Valid() {
				metas[o.dst] = mb
			}
		case opEq:
			regs[o.dst] = b2u(regs[o.a] == regs[o.b])
		case opNe:
			regs[o.dst] = b2u(regs[o.a] != regs[o.b])
		case opSLt:
			regs[o.dst] = b2u(int64(regs[o.a]) < int64(regs[o.b]))
		case opSLe:
			regs[o.dst] = b2u(int64(regs[o.a]) <= int64(regs[o.b]))
		case opSGt:
			regs[o.dst] = b2u(int64(regs[o.a]) > int64(regs[o.b]))
		case opSGe:
			regs[o.dst] = b2u(int64(regs[o.a]) >= int64(regs[o.b]))
		case opULt:
			regs[o.dst] = b2u(regs[o.a] < regs[o.b])
		case opULe:
			regs[o.dst] = b2u(regs[o.a] <= regs[o.b])
		case opUGt:
			regs[o.dst] = b2u(regs[o.a] > regs[o.b])
		case opUGe:
			regs[o.dst] = b2u(regs[o.a] >= regs[o.b])
		case opBr:
			if int(o.x) > pc {
				pc = int(o.x)
				continue
			}
			pc = int(o.x)
			goto backedge
		case opCondBr:
			if regs[o.a] != 0 {
				if int(o.x) > pc {
					pc = int(o.x)
					continue
				}
				pc = int(o.x)
				goto backedge
			}
		case opAlloca:
			in := &f.src[pc]
			isTracked := in.Has(prog.FlagTracked)
			allocSize := in.Size
			rz := m.san.Profile.StackRedzone
			if isTracked && rz > 0 {
				allocSize += 2 * rz // redzone-based layout change
			}
			raw, err := th.stack.Alloc(allocSize)
			if err != nil {
				ab = &abort{err: err}
				goto fail
			}
			if isTracked && rz > 0 {
				raw += uint64(rz)
			}
			ptr, meta := run.StackAlloc(raw, in.Size, isTracked)
			regs[o.dst] = ptr
			if metas != nil {
				metas[o.dst] = meta
			}
			if isTracked {
				tracked = append(tracked, trackedObj{ptr: ptr, size: in.Size})
			}
			m.sampleRSS()
		case opMalloc:
			size := o.y
			if o.a != prog.NoReg {
				size = int64(regs[o.a])
			}
			ptr, meta, err := run.Malloc(size)
			if err != nil {
				ab = &abort{err: err}
				goto fail
			}
			regs[o.dst] = ptr
			if metas != nil {
				metas[o.dst] = meta
			}
			th.local.Mallocs++
			if mb := m.opts.MaxHeapBytes; mb > 0 && m.heap.LiveBytes() > mb {
				ab = &abort{err: ErrHeapBudget}
				goto fail
			}
			m.sampleRSS()
		case opFree:
			var meta rt.PtrMeta
			if metas != nil {
				meta = metas[o.a]
			}
			if v := run.Free(regs[o.a], meta); v != nil {
				ab = th.report(v, f.name, pc)
				goto fail
			}
			th.local.Frees++
			m.sampleRSS()
		case opLoad:
			if ab = th.load(o, regs, mask); ab != nil {
				goto fail
			}
		case opStore:
			if ab = th.store(o, regs, mask); ab != nil {
				goto fail
			}
		case opGEP:
			regs[o.dst] = regs[o.a] + uint64(o.x) + regs[o.b]*uint64(o.y)
		case opGEPMeta:
			regs[o.dst] = regs[o.a] + uint64(o.x) + regs[o.b]*uint64(o.y)
			metas[o.dst] = metas[o.a]
		case opGlobalAddr:
			// An unresolved global reads as a null GPT entry.
			var ptr uint64
			var meta rt.PtrMeta
			if o.x >= 0 {
				ptr, meta = m.gptPtr[o.x], m.gptMeta[o.x]
			}
			regs[o.dst] = ptr
			if metas != nil {
				metas[o.dst] = meta
			}
		case opCall:
			if o.x < 0 {
				ab = &abort{err: fmt.Errorf("interp: undefined function %q", f.sym(pc))}
				goto fail
			}
			// Arguments go register-to-register into the callee's window.
			mark := th.frameBase
			cregs, cmetas := th.frame(m.code[o.x].numRegs)
			args := f.args(pc)
			args = args[:min(len(args), len(cregs))]
			for i, a := range args {
				cregs[i] = regs[a]
			}
			if cmetas != nil {
				for i, a := range args {
					cmetas[i] = metas[a]
				}
			}
			ret, rmeta, cab := th.call(int32(o.x), cregs, cmetas, depth+1)
			th.frameBase = mark
			if cab != nil {
				ab = cab
				goto fail
			}
			regs[o.dst] = ret
			if metas != nil {
				metas[o.dst] = rmeta
			}
		case opCallExternal:
			ret, cab := th.callExternal(&f.src[pc], f.sym(pc), f.args(pc), regs, metas, f.name, pc)
			if cab != nil {
				ab = cab
				goto fail
			}
			regs[o.dst] = ret
			th.local.ExternCalls++
		case opLibc:
			ret, cab := th.libcCall(&f.src[pc], f.sym(pc), f.args(pc), regs, metas, f.name, pc)
			if cab != nil {
				ab = cab
				goto fail
			}
			regs[o.dst] = ret
			th.local.LibcCalls++
		case opParFor:
			if ab = th.parFor(&f.src[pc], f.sym(pc), int32(o.x), regs, depth); ab != nil {
				goto fail
			}
		case opRet:
			var v uint64
			var rmeta rt.PtrMeta
			if o.a != prog.NoReg {
				v = regs[o.a]
				if metas != nil {
					rmeta = metas[o.a]
				}
			}
			th.local.Instructions += steps
			th.epilogue(tracked, frameMark)
			return v, rmeta, nil
		case opCheck:
			if ab = th.check(o, regs, metas, f.name, pc); ab != nil {
				goto fail
			}
		case opCheckSlow:
			size := o.y
			if o.b != prog.NoReg {
				size = int64(regs[o.b])
			}
			var meta rt.PtrMeta
			if metas != nil {
				meta = metas[o.a]
			}
			if ab = th.checkAt(regs[o.a], meta, o.x, size, rt.AccessKind(o.dst), f.name, pc); ab != nil {
				goto fail
			}
		case opPeriodic:
			if !periodicSkip(int64(regs[o.b])-o.x, uint64(o.y)) {
				if ab = th.periodic(&f.src[pc], f.args(pc), regs, metas, f.name, pc); ab != nil {
					goto fail
				}
			}
		case opSubPtr:
			in := &f.src[pc]
			ptr, meta := run.SubPtr(regs[o.a], in.Off, in.Size)
			regs[o.dst] = ptr
			if metas != nil {
				metas[o.dst] = meta
			}
			th.local.SubPtrOps++
		case opSubRelease:
			run.SubRelease(regs[o.a])
			th.local.SubPtrOps++
		case opStripPtr:
			raw, v := run.PrepareExternArg(regs[o.a])
			if v != nil {
				ab = th.report(v, f.name, pc)
				goto fail
			}
			regs[o.dst] = raw
		case opRetagPtr:
			regs[o.dst] = (regs[o.a] & mask) | (regs[o.b] &^ mask)
		case opPtrMetaCopy:
			metas[o.dst] = metas[o.a]
			th.local.MetaOps++
		case opPtrMetaLoad:
			metas[o.dst] = run.LoadPtrMeta((regs[o.a] & mask) + uint64(o.x))
			th.local.MetaOps++
		case opPtrMetaStore:
			run.StorePtrMeta((regs[o.a]&mask)+uint64(o.x), metas[o.b])
			th.local.MetaOps++

		// Superinstructions: each runs its group's source instructions in
		// order, reading the tails' operands from ops[pc+1] and ops[pc+2].
		case opConstAdd:
			regs[o.dst] = uint64(o.x)
			t := &ops[pc+1]
			regs[t.dst] = regs[t.a] + regs[t.b]
			pc += 2
			continue
		case opConstSub:
			regs[o.dst] = uint64(o.x)
			t := &ops[pc+1]
			regs[t.dst] = regs[t.a] - regs[t.b]
			pc += 2
			continue
		case opConstMul:
			regs[o.dst] = uint64(o.x)
			t := &ops[pc+1]
			regs[t.dst] = regs[t.a] * regs[t.b]
			pc += 2
			continue
		case opConstAnd:
			regs[o.dst] = uint64(o.x)
			t := &ops[pc+1]
			regs[t.dst] = regs[t.a] & regs[t.b]
			pc += 2
			continue
		case opLatch:
			regs[o.dst] = uint64(o.x)
			t := &ops[pc+1]
			regs[t.dst] = regs[t.a] + regs[t.b]
			if tgt := int(ops[pc+2].x); tgt > pc+2 {
				pc = tgt
				continue
			}
			pc = int(ops[pc+2].x)
			goto backedge
		case opSGeBr:
			if int64(regs[o.a]) >= int64(regs[o.b]) {
				regs[o.dst] = 1
				goto taken
			}
			regs[o.dst] = 0
			pc += 2
			continue
		case opSLtBr:
			if int64(regs[o.a]) < int64(regs[o.b]) {
				regs[o.dst] = 1
				goto taken
			}
			regs[o.dst] = 0
			pc += 2
			continue
		case opEqBr:
			if regs[o.a] == regs[o.b] {
				regs[o.dst] = 1
				goto taken
			}
			regs[o.dst] = 0
			pc += 2
			continue
		case opGEPLoad:
			regs[o.dst] = regs[o.a] + uint64(o.x) + regs[o.b]*uint64(o.y)
			if ab = th.load(&ops[pc+1], regs, mask); ab != nil {
				goto fail
			}
			pc += 2
			continue
		case opGEPStore:
			regs[o.dst] = regs[o.a] + uint64(o.x) + regs[o.b]*uint64(o.y)
			if ab = th.store(&ops[pc+1], regs, mask); ab != nil {
				goto fail
			}
			pc += 2
			continue
		case opGEPCheckLoad:
			regs[o.dst] = regs[o.a] + uint64(o.x) + regs[o.b]*uint64(o.y)
			if ab = th.check(&ops[pc+1], regs, metas, f.name, pc+1); ab != nil {
				goto fail
			}
			if ab = th.load(&ops[pc+2], regs, mask); ab != nil {
				goto fail
			}
			pc += 3
			continue
		case opGEPCheckStore:
			regs[o.dst] = regs[o.a] + uint64(o.x) + regs[o.b]*uint64(o.y)
			if ab = th.check(&ops[pc+1], regs, metas, f.name, pc+1); ab != nil {
				goto fail
			}
			if ab = th.store(&ops[pc+2], regs, mask); ab != nil {
				goto fail
			}
			pc += 3
			continue
		case opCheckLoad:
			if ab = th.check(o, regs, metas, f.name, pc); ab != nil {
				goto fail
			}
			if ab = th.load(&ops[pc+1], regs, mask); ab != nil {
				goto fail
			}
			pc += 2
			continue
		case opCheckStore:
			if ab = th.check(o, regs, metas, f.name, pc); ab != nil {
				goto fail
			}
			if ab = th.store(&ops[pc+1], regs, mask); ab != nil {
				goto fail
			}
			pc += 2
			continue
		case opPeriodicLoad:
			if !periodicSkip(int64(regs[o.b])-o.x, uint64(o.y)) {
				if ab = th.periodic(&f.src[pc], f.args(pc), regs, metas, f.name, pc); ab != nil {
					goto fail
				}
			}
			if ab = th.load(&ops[pc+1], regs, mask); ab != nil {
				goto fail
			}
			pc += 2
			continue
		case opPeriodicStore:
			if !periodicSkip(int64(regs[o.b])-o.x, uint64(o.y)) {
				if ab = th.periodic(&f.src[pc], f.args(pc), regs, metas, f.name, pc); ab != nil {
					goto fail
				}
			}
			if ab = th.store(&ops[pc+1], regs, mask); ab != nil {
				goto fail
			}
			pc += 2
			continue

		case opEnd:
			// Fell off the end (validator prevents this for authored programs).
			th.local.Instructions += steps
			th.epilogue(tracked, frameMark)
			return 0, rt.PtrMeta{}, nil
		default:
			ab = &abort{err: fmt.Errorf("interp: invalid opcode %v at %s@%d", f.src[pc].Op, f.name, pc)}
			goto fail
		}
		pc++
		continue

	taken:
		// A fused compare-and-branch took the branch at pc+1.
		if tgt := int(ops[pc+1].x); tgt > pc+1 {
			pc = tgt
			continue
		}
		pc = int(ops[pc+1].x)
	backedge:
		// Budget and abort checks on every backward branch.
		th.budget -= steps
		th.local.Instructions += steps
		steps = 0
		if th.budget <= 0 {
			ab = &abort{err: ErrInstructionBudget}
			goto fail
		}
		if m.aborted.Load() {
			ab = th.abortCause()
			goto fail
		}
	}
fail:
	th.epilogue(tracked, frameMark)
	return 0, rt.PtrMeta{}, ab
}

// b2u converts a comparison result to the 0/1 word a cmp writes.
func b2u(t bool) uint64 {
	if t {
		return 1
	}
	return 0
}

// epilogue releases a frame's tracked stack objects' metadata and pops its
// simulated stack frame.
func (th *thread) epilogue(tracked []trackedObj, frameMark uint64) {
	for _, ob := range tracked {
		th.m.san.Runtime.StackRelease(ob.ptr, ob.size)
	}
	th.stack.Release(frameMark)
}

// load runs load op o: an in-chunk access of a common width takes Space's
// inlined fast path, anything else (and every fault) goes to Space.Load.
func (th *thread) load(o *op, regs []uint64, mask uint64) *abort {
	addr := (regs[o.a] & mask) + uint64(o.x)
	sp := th.m.space
	var v uint64
	var ok bool
	switch o.y {
	case 8:
		v, ok = sp.FastLoad8(addr)
	case 4:
		v, ok = sp.FastLoad4(addr)
	case 1:
		v, ok = sp.FastLoad1(addr)
	case 2:
		v, ok = sp.FastLoad2(addr)
	}
	if !ok {
		var f *mem.Fault
		if v, f = sp.Load(addr, o.y); f != nil {
			return &abort{fault: f}
		}
	}
	regs[o.dst] = v
	return nil
}

// store runs store op o, with the same split as load: Space's fast path
// takes an in-chunk store below the chunk's dirty mark.
func (th *thread) store(o *op, regs []uint64, mask uint64) *abort {
	addr, val := (regs[o.a]&mask)+uint64(o.x), regs[o.b]
	sp := th.m.space
	var ok bool
	switch o.y {
	case 8:
		ok = sp.FastStore8(addr, val)
	case 4:
		ok = sp.FastStore4(addr, val)
	case 1:
		ok = sp.FastStore1(addr, val)
	case 2:
		ok = sp.FastStore2(addr, val)
	}
	if !ok {
		if f := sp.Store(addr, o.y, val); f != nil {
			return &abort{fault: f}
		}
	}
	return nil
}

// check runs check op o (static size, no observer), the one at pc.
func (th *thread) check(o *op, regs []uint64, metas []rt.PtrMeta, fnName string, pc int) *abort {
	var meta rt.PtrMeta
	if metas != nil {
		meta = metas[o.a]
	}
	th.local.ChecksExecuted++
	if v := th.m.san.Runtime.Check(regs[o.a], meta, o.x, o.y, rt.AccessKind(o.dst)); v != nil {
		return th.report(v, fnName, pc)
	}
	return nil
}

// checkAt runs one check of [ptr+off, ptr+off+size), timing it for the
// check observer when one is attached.
func (th *thread) checkAt(ptr uint64, meta rt.PtrMeta, off, size int64, kind rt.AccessKind, fnName string, pc int) *abort {
	th.local.ChecksExecuted++
	run := th.m.san.Runtime
	var v *rt.Violation
	if obsv := th.m.opts.CheckObserver; obsv != nil {
		t0 := time.Now()
		v = run.Check(ptr, meta, off, size, kind)
		obsv.ObserveCheck(fnName, pc, size, time.Since(t0))
	} else {
		v = run.Check(ptr, meta, off, size, kind)
	}
	if v != nil {
		return th.report(v, fnName, pc)
	}
	return nil
}

// periodic runs in, a grouped monotonic check with arguments args (§II.F.1, Figure 4a), when it
// is due: it fires every check_step-th iteration, widened to cover the
// elements until the next firing, clamped at the loop limit. The decoded
// op calls it only where periodicSkip cannot rule the firing out.
func (th *thread) periodic(in *prog.Instr, args []prog.Reg, regs []uint64, metas []rt.PtrMeta, fnName string, pc int) *abort {
	iv := int64(regs[args[1]])
	modulus := in.Off
	if (iv-in.Imm)%modulus != 0 {
		return nil
	}
	step := int64(in.X)
	limit := int64(regs[args[2]])
	elems := (limit - iv + step - 1) / step
	if ceiling := modulus / step; elems > ceiling {
		elems = ceiling
	}
	if elems <= 0 {
		return nil
	}
	kind := rt.Read
	if in.Has(prog.FlagWrite) {
		kind = rt.Write
	}
	var meta rt.PtrMeta
	if metas != nil {
		meta = metas[args[0]]
	}
	return th.checkAt(regs[args[0]], meta, 0, elems*in.Size, kind, fnName, pc)
}

// takeTids reserves the n lowest free thread ids. Ids past the stack region
// are handed out too; alloc.NewStack refuses them.
func (m *Machine) takeTids(n int) []int {
	tids := make([]int, n)
	m.tidMu.Lock()
	for i := range tids {
		tid := bits.TrailingZeros64(^m.tids)
		m.tids |= 1 << tid // a no-op past bit 63
		tids[i] = tid
	}
	m.tidMu.Unlock()
	return tids
}

// releaseTids frees thread ids taken by takeTids.
func (m *Machine) releaseTids(tids []int) {
	m.tidMu.Lock()
	for _, tid := range tids {
		m.tids &^= 1 << tid
	}
	m.tidMu.Unlock()
}

// errAbortedElsewhere stops sibling threads after another thread reported.
var errAbortedElsewhere = fmt.Errorf("interp: aborted by violation on another thread")

// abortCause builds the abort for a thread that observed the machine's
// aborted flag: the externally supplied Interrupt cause when there is one,
// the generic cross-thread error otherwise.
func (th *thread) abortCause() *abort {
	if c := th.m.interrupted.Load(); c != nil {
		return &abort{err: c.err}
	}
	return &abort{err: errAbortedElsewhere}
}

// report finalizes a violation with its code location and flips the global
// abort flag so parallel regions stop.
func (th *thread) report(v *rt.Violation, fnName string, pc int) *abort {
	v.Func = fnName
	v.PC = pc
	th.m.aborted.Store(true)
	return &abort{violation: v}
}

// parFor runs sym (function index fi, -1 when unresolved) over [lo,hi)
// partitioned across in.Imm OS-level workers — the OpenMP analogue used by
// the SPEC CPU2017 workloads.
func (th *thread) parFor(in *prog.Instr, sym string, fi int32, regs []uint64, depth int) *abort {
	m := th.m
	lo := int64(regs[in.A])
	hi := int64(regs[in.B])
	workers := int(in.Imm)
	if hi <= lo {
		return nil
	}
	if fi < 0 {
		return &abort{err: fmt.Errorf("interp: undefined parfor body %q", sym)}
	}
	numRegs := m.code[fi].numRegs
	if workers < 1 {
		workers = 1
	}
	span := hi - lo
	if int64(workers) > span {
		workers = int(span)
	}
	chunk := span / int64(workers)

	// Worker stacks come from the machine's free thread ids, taken here in
	// worker order so a region's ids do not depend on scheduling: a
	// top-level region gets ids 1..workers, and a region nested in another
	// worker never shares a stack with a thread that is still running.
	tids := m.takeTids(workers)
	defer m.releaseTids(tids)
	aborts := make([]*abort, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		start := lo + int64(w)*chunk
		end := start + chunk
		if w == workers-1 {
			end = hi
		}
		wg.Add(1)
		go func(w int, start, end int64) {
			defer wg.Done()
			// A panic on a worker goroutine would kill the whole process
			// (recover in the engine can't cross goroutines), so each worker
			// converts its own panic into an abort and stops the region.
			defer func() {
				if v := recover(); v != nil {
					aborts[w] = &abort{err: &PanicError{
						Value: fmt.Sprint(v),
						Stack: string(debug.Stack()),
					}}
					m.aborted.Store(true)
				}
			}()
			stack, err := alloc.NewStack(tids[w])
			if err != nil {
				aborts[w] = &abort{err: err}
				return
			}
			wt := &thread{m: m, stack: stack, budget: th.budget}
			defer wt.flushStats()
			for i := start; i < end; i++ {
				if m.aborted.Load() {
					return
				}
				wregs, wmetas := wt.frame(numRegs)
				if len(wregs) > 0 {
					wregs[0] = uint64(i)
				}
				_, _, ab := wt.call(fi, wregs, wmetas, depth+1)
				wt.frameBase = 0
				if ab != nil {
					if ab.err != errAbortedElsewhere {
						aborts[w] = ab
					}
					return
				}
			}
		}(w, start, end)
	}
	wg.Wait()
	for _, ab := range aborts {
		if ab != nil {
			return ab
		}
	}
	return nil
}

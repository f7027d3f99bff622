package interp

import (
	"fmt"
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

// call executes function fi of the machine's link in the register window
// regs (and, when per-pointer metadata is tracked, metas), which the caller
// carved with frame and filled with the arguments; the caller also pops the
// window afterwards. It returns the result value/meta or an abort.
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
	fn, targets := m.link.Funcs[fi].Func, m.link.Funcs[fi].Targets

	frameMark := th.stack.Mark()
	var tracked []trackedObj
	// epilogue releases tracked stack objects' metadata and pops the
	// simulated stack frame.
	epilogue := func() {
		for _, ob := range tracked {
			run.StackRelease(ob.ptr, ob.size)
		}
		th.stack.Release(frameMark)
	}

	code := fn.Code
	pc := 0
	steps := int64(0)

	for pc < len(code) {
		in := &code[pc]
		steps++
		switch in.Op {
		case prog.OpConst:
			regs[in.Dst] = uint64(in.Imm)
		case prog.OpMov:
			regs[in.Dst] = regs[in.A]
			if metas != nil {
				metas[in.Dst] = metas[in.A]
			}
		case prog.OpBin:
			a, b := regs[in.A], regs[in.B]
			var v uint64
			switch prog.BinOp(in.X) {
			case prog.BinAdd:
				v = a + b
			case prog.BinSub:
				v = a - b
			case prog.BinMul:
				v = a * b
			case prog.BinDiv:
				if b == 0 {
					epilogue()
					return 0, rt.PtrMeta{}, &abort{err: fmt.Errorf("interp: SIGFPE: division by zero in %s@%d", fn.Name, pc)}
				}
				v = uint64(int64(a) / int64(b))
			case prog.BinRem:
				if b == 0 {
					epilogue()
					return 0, rt.PtrMeta{}, &abort{err: fmt.Errorf("interp: SIGFPE: remainder by zero in %s@%d", fn.Name, pc)}
				}
				v = uint64(int64(a) % int64(b))
			case prog.BinAnd:
				v = a & b
			case prog.BinOr:
				v = a | b
			case prog.BinXor:
				v = a ^ b
			case prog.BinShl:
				v = a << (b & 63)
			case prog.BinShr:
				v = a >> (b & 63)
			}
			regs[in.Dst] = v
			if metas != nil {
				// Pointer ± integer keeps the operand's per-pointer metadata:
				// the derived pointer inherits the base object's bounds and
				// key (SoftBound's pointer-arithmetic rule), so an interior
				// pointer built by register arithmetic carries provenance
				// into Free/Check. Scalar operands carry zero metadata, so
				// plain integer arithmetic stays metadata-free.
				switch prog.BinOp(in.X) {
				case prog.BinAdd, prog.BinSub:
					if ma := metas[in.A]; ma.Valid() {
						metas[in.Dst] = ma
					} else if mb := metas[in.B]; mb.Valid() {
						metas[in.Dst] = mb
					}
				}
			}
		case prog.OpCmp:
			a, b := regs[in.A], regs[in.B]
			var t bool
			switch prog.CmpPred(in.X) {
			case prog.CmpEq:
				t = a == b
			case prog.CmpNe:
				t = a != b
			case prog.CmpSLt:
				t = int64(a) < int64(b)
			case prog.CmpSLe:
				t = int64(a) <= int64(b)
			case prog.CmpSGt:
				t = int64(a) > int64(b)
			case prog.CmpSGe:
				t = int64(a) >= int64(b)
			case prog.CmpULt:
				t = a < b
			case prog.CmpULe:
				t = a <= b
			case prog.CmpUGt:
				t = a > b
			case prog.CmpUGe:
				t = a >= b
			}
			if t {
				regs[in.Dst] = 1
			} else {
				regs[in.Dst] = 0
			}
		case prog.OpBr:
			tgt := int(in.Imm)
			if tgt <= pc { // backedge: budget and abort checks
				th.budget -= steps
				th.local.Instructions += steps
				steps = 0
				if th.budget <= 0 {
					epilogue()
					return 0, rt.PtrMeta{}, &abort{err: ErrInstructionBudget}
				}
				if m.aborted.Load() {
					epilogue()
					return 0, rt.PtrMeta{}, th.abortCause()
				}
			}
			pc = tgt
			continue
		case prog.OpCondBr:
			if regs[in.A] != 0 {
				tgt := int(in.Imm)
				if tgt <= pc {
					th.budget -= steps
					th.local.Instructions += steps
					steps = 0
					if th.budget <= 0 {
						epilogue()
						return 0, rt.PtrMeta{}, &abort{err: ErrInstructionBudget}
					}
					if m.aborted.Load() {
						epilogue()
						return 0, rt.PtrMeta{}, th.abortCause()
					}
				}
				pc = tgt
				continue
			}
		case prog.OpAlloca:
			isTracked := in.Has(prog.FlagTracked)
			allocSize := in.Size
			rz := m.san.Profile.StackRedzone
			if isTracked && rz > 0 {
				allocSize += 2 * rz // redzone-based layout change
			}
			raw, err := th.stack.Alloc(allocSize)
			if err != nil {
				epilogue()
				return 0, rt.PtrMeta{}, &abort{err: err}
			}
			if isTracked && rz > 0 {
				raw += uint64(rz)
			}
			ptr, meta := run.StackAlloc(raw, in.Size, isTracked)
			regs[in.Dst] = ptr
			if metas != nil {
				metas[in.Dst] = meta
			}
			if isTracked {
				tracked = append(tracked, trackedObj{ptr: ptr, size: in.Size})
			}
			m.sampleRSS()
		case prog.OpMalloc:
			size := in.Size
			if in.A != prog.NoReg {
				size = int64(regs[in.A])
			}
			ptr, meta, err := run.Malloc(size)
			if err != nil {
				epilogue()
				return 0, rt.PtrMeta{}, &abort{err: err}
			}
			regs[in.Dst] = ptr
			if metas != nil {
				metas[in.Dst] = meta
			}
			th.local.Mallocs++
			if mb := m.opts.MaxHeapBytes; mb > 0 && m.heap.LiveBytes() > mb {
				epilogue()
				return 0, rt.PtrMeta{}, &abort{err: ErrHeapBudget}
			}
			m.sampleRSS()
		case prog.OpFree:
			var meta rt.PtrMeta
			if metas != nil {
				meta = metas[in.A]
			}
			if v := run.Free(regs[in.A], meta); v != nil {
				epilogue()
				return 0, rt.PtrMeta{}, th.report(v, fn.Name, pc)
			}
			th.local.Frees++
			m.sampleRSS()
		case prog.OpLoad:
			addr := (regs[in.A] & mask) + uint64(in.Off)
			v, f := m.space.Load(addr, in.Size)
			if f != nil {
				epilogue()
				return 0, rt.PtrMeta{}, &abort{fault: f}
			}
			regs[in.Dst] = v
		case prog.OpStore:
			addr := (regs[in.A] & mask) + uint64(in.Off)
			if f := m.space.Store(addr, in.Size, regs[in.B]); f != nil {
				epilogue()
				return 0, rt.PtrMeta{}, &abort{fault: f}
			}
		case prog.OpGEP:
			v := regs[in.A] + uint64(in.Off)
			if in.B != prog.NoReg {
				v += regs[in.B] * uint64(in.Imm)
			}
			regs[in.Dst] = v
			if metas != nil {
				metas[in.Dst] = metas[in.A]
			}
		case prog.OpGlobalAddr:
			// An unresolved global reads as a null GPT entry.
			var ptr uint64
			var meta rt.PtrMeta
			if slot := targets[pc]; slot >= 0 {
				ptr, meta = m.gptPtr[slot], m.gptMeta[slot]
			}
			regs[in.Dst] = ptr
			if metas != nil {
				metas[in.Dst] = meta
			}
		case prog.OpCall:
			ci := targets[pc]
			if ci < 0 {
				epilogue()
				return 0, rt.PtrMeta{}, &abort{err: fmt.Errorf("interp: undefined function %q", in.Sym)}
			}
			// Arguments go register-to-register into the callee's window.
			mark := th.frameBase
			cregs, cmetas := th.frame(m.link.Funcs[ci].Func.NumRegs)
			args := in.Args[:min(len(in.Args), len(cregs))]
			for i, a := range args {
				cregs[i] = regs[a]
			}
			if cmetas != nil {
				for i, a := range args {
					cmetas[i] = metas[a]
				}
			}
			ret, rmeta, ab := th.call(ci, cregs, cmetas, depth+1)
			th.frameBase = mark
			if ab != nil {
				epilogue()
				return 0, rt.PtrMeta{}, ab
			}
			regs[in.Dst] = ret
			if metas != nil {
				metas[in.Dst] = rmeta
			}
		case prog.OpCallExternal:
			ret, ab := th.callExternal(in, regs, metas, fn.Name, pc)
			if ab != nil {
				epilogue()
				return 0, rt.PtrMeta{}, ab
			}
			regs[in.Dst] = ret
			th.local.ExternCalls++
		case prog.OpLibc:
			ret, ab := th.libcCall(in, regs, metas, fn.Name, pc)
			if ab != nil {
				epilogue()
				return 0, rt.PtrMeta{}, ab
			}
			regs[in.Dst] = ret
			th.local.LibcCalls++
		case prog.OpParFor:
			if ab := th.parFor(in, targets[pc], regs, depth); ab != nil {
				epilogue()
				return 0, rt.PtrMeta{}, ab
			}
		case prog.OpRet:
			var v uint64
			var rmeta rt.PtrMeta
			if in.A != prog.NoReg {
				v = regs[in.A]
				if metas != nil {
					rmeta = metas[in.A]
				}
			}
			th.local.Instructions += steps
			epilogue()
			return v, rmeta, nil
		case prog.OpCheckAccess:
			kind := rt.Read
			if in.Has(prog.FlagWrite) {
				kind = rt.Write
			}
			var meta rt.PtrMeta
			if metas != nil {
				meta = metas[in.A]
			}
			size := in.Size
			if in.B != prog.NoReg {
				size = int64(regs[in.B])
			}
			th.local.ChecksExecuted++
			var v *rt.Violation
			if obsv := m.opts.CheckObserver; obsv != nil {
				t0 := time.Now()
				v = run.Check(regs[in.A], meta, in.Off, size, kind)
				obsv.ObserveCheck(fn.Name, pc, size, time.Since(t0))
			} else {
				v = run.Check(regs[in.A], meta, in.Off, size, kind)
			}
			if v != nil {
				epilogue()
				return 0, rt.PtrMeta{}, th.report(v, fn.Name, pc)
			}
			// Fused superinstruction: execute the guarded access in the same
			// dispatch. Semantics, PCs and step accounting are identical to
			// the unfused pair — the access instruction is executed verbatim
			// and counted as its own step.
			if fn.Fused != nil && fn.Fused[pc] != prog.FuseNone {
				nin := &code[pc+1]
				steps++
				addr := (regs[nin.A] & mask) + uint64(nin.Off)
				if fn.Fused[pc] == prog.FuseLoad {
					v, f := m.space.Load(addr, nin.Size)
					if f != nil {
						epilogue()
						return 0, rt.PtrMeta{}, &abort{fault: f}
					}
					regs[nin.Dst] = v
				} else {
					if f := m.space.Store(addr, nin.Size, regs[nin.B]); f != nil {
						epilogue()
						return 0, rt.PtrMeta{}, &abort{fault: f}
					}
				}
				pc += 2
				continue
			}
		case prog.OpCheckPeriodic:
			// Grouped monotonic check (§II.F.1, Figure 4a): fire every
			// check_step-th iteration, widened to cover the elements until
			// the next firing, clamped at the loop limit.
			iv := int64(regs[in.Args[1]])
			modulus := in.Off
			if (iv-in.Imm)%modulus == 0 {
				step := int64(in.X)
				limit := int64(regs[in.Args[2]])
				elems := (limit - iv + step - 1) / step
				if ceiling := modulus / step; elems > ceiling {
					elems = ceiling
				}
				if elems > 0 {
					kind := rt.Read
					if in.Has(prog.FlagWrite) {
						kind = rt.Write
					}
					var meta rt.PtrMeta
					if metas != nil {
						meta = metas[in.Args[0]]
					}
					th.local.ChecksExecuted++
					var v *rt.Violation
					if obsv := m.opts.CheckObserver; obsv != nil {
						t0 := time.Now()
						v = run.Check(regs[in.Args[0]], meta, 0, elems*in.Size, kind)
						obsv.ObserveCheck(fn.Name, pc, elems*in.Size, time.Since(t0))
					} else {
						v = run.Check(regs[in.Args[0]], meta, 0, elems*in.Size, kind)
					}
					if v != nil {
						epilogue()
						return 0, rt.PtrMeta{}, th.report(v, fn.Name, pc)
					}
				}
			}
		case prog.OpSubPtr:
			ptr, meta := run.SubPtr(regs[in.A], in.Off, in.Size)
			regs[in.Dst] = ptr
			if metas != nil {
				metas[in.Dst] = meta
			}
			th.local.SubPtrOps++
		case prog.OpSubRelease:
			run.SubRelease(regs[in.A])
			th.local.SubPtrOps++
		case prog.OpStripPtr:
			raw, v := run.PrepareExternArg(regs[in.A])
			if v != nil {
				epilogue()
				return 0, rt.PtrMeta{}, th.report(v, fn.Name, pc)
			}
			regs[in.Dst] = raw
		case prog.OpRetagPtr:
			regs[in.Dst] = (regs[in.A] & mask) | (regs[in.B] &^ mask)
		case prog.OpPtrMetaCopy:
			if metas != nil {
				metas[in.Dst] = metas[in.A]
				th.local.MetaOps++
			}
		case prog.OpPtrMetaLoad:
			if metas != nil {
				addr := (regs[in.A] & mask) + uint64(in.Off)
				metas[in.Dst] = run.LoadPtrMeta(addr)
				th.local.MetaOps++
			}
		case prog.OpPtrMetaStore:
			if metas != nil {
				addr := (regs[in.A] & mask) + uint64(in.Off)
				run.StorePtrMeta(addr, metas[in.B])
				th.local.MetaOps++
			}
		default:
			epilogue()
			return 0, rt.PtrMeta{}, &abort{err: fmt.Errorf("interp: invalid opcode %v at %s@%d", in.Op, fn.Name, pc)}
		}
		pc++
	}
	// Fell off the end (validator prevents this for authored programs).
	th.local.Instructions += steps
	epilogue()
	return 0, rt.PtrMeta{}, nil
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

// parFor runs in.Sym (function index fi, -1 when unresolved) over [lo,hi)
// partitioned across in.Imm OS-level workers — the OpenMP analogue used by
// the SPEC CPU2017 workloads.
func (th *thread) parFor(in *prog.Instr, fi int32, regs []uint64, depth int) *abort {
	m := th.m
	lo := int64(regs[in.A])
	hi := int64(regs[in.B])
	workers := int(in.Imm)
	if hi <= lo {
		return nil
	}
	if fi < 0 {
		return &abort{err: fmt.Errorf("interp: undefined parfor body %q", in.Sym)}
	}
	numRegs := m.link.Funcs[fi].Func.NumRegs
	if workers < 1 {
		workers = 1
	}
	span := hi - lo
	if int64(workers) > span {
		workers = int(span)
	}
	chunk := span / int64(workers)

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
			stack, err := alloc.NewStack(w + 1)
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

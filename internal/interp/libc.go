package interp

import (
	"fmt"
	"time"

	"cecsan/internal/rt"
	"cecsan/prog"
)

// libcCall dispatches a simulated C library call. Each function first
// validates the byte ranges it will touch through the runtime's LibcCheck —
// the interceptor for ASan-family sanitizers, the instrumented call-site
// check for CECSan — and then performs the operation on raw memory.
// Individual runtimes reproduce their documented coverage gaps (e.g. the
// wide-character functions most sanitizers overlook, §IV.B) inside
// LibcCheck.
func (th *thread) libcCall(in *prog.Instr, sym string, args []prog.Reg, regs []uint64, metas []rt.PtrMeta, fnName string, pc int) (uint64, *abort) {
	m := th.m
	mask := m.addrMask
	argv := func(i int) uint64 { return regs[args[i]] }
	argm := func(i int) rt.PtrMeta {
		if metas == nil {
			return rt.PtrMeta{}
		}
		return metas[args[i]]
	}
	check := func(fn string, i int, n int64, k rt.AccessKind) *abort {
		th.local.ChecksExecuted++
		var v *rt.Violation
		if obsv := m.opts.CheckObserver; obsv != nil {
			t0 := time.Now()
			v = m.san.Runtime.LibcCheck(fn, argv(i), argm(i), n, k)
			obsv.ObserveCheck(fnName, pc, n, time.Since(t0))
		} else {
			v = m.san.Runtime.LibcCheck(fn, argv(i), argm(i), n, k)
		}
		if v != nil {
			return th.report(v, fnName, pc)
		}
		return nil
	}
	need := func(n int) *abort {
		if len(args) < n {
			return &abort{err: fmt.Errorf("interp: libc %s: want %d args, got %d", sym, n, len(args))}
		}
		return nil
	}
	// strlenRaw measures a NUL-terminated byte string in raw memory.
	strlenRaw := func(raw uint64) int64 { return m.space.ScanZero(raw, 1) }

	switch sym {
	case "memcpy", "memmove":
		if ab := need(3); ab != nil {
			return 0, ab
		}
		n := int64(argv(2))
		if ab := check(sym, 0, n, rt.Write); ab != nil {
			return 0, ab
		}
		if ab := check(sym, 1, n, rt.Read); ab != nil {
			return 0, ab
		}
		if f := m.space.Copy(argv(0)&mask, argv(1)&mask, n); f != nil {
			return 0, &abort{fault: f}
		}
		return argv(0), nil

	case "memset":
		if ab := need(3); ab != nil {
			return 0, ab
		}
		n := int64(argv(2))
		if ab := check(sym, 0, n, rt.Write); ab != nil {
			return 0, ab
		}
		if f := m.space.Set(argv(0)&mask, byte(argv(1)), n); f != nil {
			return 0, &abort{fault: f}
		}
		return argv(0), nil

	case "strlen":
		if ab := need(1); ab != nil {
			return 0, ab
		}
		n := strlenRaw(argv(0) & mask)
		if ab := check(sym, 0, n+1, rt.Read); ab != nil {
			return 0, ab
		}
		return uint64(n), nil

	case "strcpy":
		if ab := need(2); ab != nil {
			return 0, ab
		}
		n := strlenRaw(argv(1) & mask)
		if ab := check(sym, 1, n+1, rt.Read); ab != nil {
			return 0, ab
		}
		if ab := check(sym, 0, n+1, rt.Write); ab != nil {
			return 0, ab
		}
		if f := m.space.Copy(argv(0)&mask, argv(1)&mask, n+1); f != nil {
			return 0, &abort{fault: f}
		}
		return argv(0), nil

	case "strncpy":
		if ab := need(3); ab != nil {
			return 0, ab
		}
		n := int64(argv(2))
		srcLen := strlenRaw(argv(1) & mask)
		cp := srcLen
		if cp > n {
			cp = n
		}
		if ab := check(sym, 1, cp, rt.Read); ab != nil {
			return 0, ab
		}
		if ab := check(sym, 0, n, rt.Write); ab != nil { // strncpy pads to n
			return 0, ab
		}
		if f := m.space.Copy(argv(0)&mask, argv(1)&mask, cp); f != nil {
			return 0, &abort{fault: f}
		}
		if cp < n {
			if f := m.space.Set((argv(0)&mask)+uint64(cp), 0, n-cp); f != nil {
				return 0, &abort{fault: f}
			}
		}
		return argv(0), nil

	case "strcat":
		if ab := need(2); ab != nil {
			return 0, ab
		}
		dl := strlenRaw(argv(0) & mask)
		sl := strlenRaw(argv(1) & mask)
		if ab := check(sym, 1, sl+1, rt.Read); ab != nil {
			return 0, ab
		}
		if ab := check(sym, 0, dl+sl+1, rt.Write); ab != nil {
			return 0, ab
		}
		if f := m.space.Copy((argv(0)&mask)+uint64(dl), argv(1)&mask, sl+1); f != nil {
			return 0, &abort{fault: f}
		}
		return argv(0), nil

	case "wcslen":
		if ab := need(1); ab != nil {
			return 0, ab
		}
		n := m.space.ScanZero(argv(0)&mask, 4)
		if ab := check(sym, 0, 4*(n+1), rt.Read); ab != nil {
			return 0, ab
		}
		return uint64(n), nil

	case "wcsncpy", "wmemcpy":
		if ab := need(3); ab != nil {
			return 0, ab
		}
		n := int64(argv(2)) * 4 // wide chars -> bytes
		if ab := check(sym, 0, n, rt.Write); ab != nil {
			return 0, ab
		}
		if ab := check(sym, 1, n, rt.Read); ab != nil {
			return 0, ab
		}
		if f := m.space.Copy(argv(0)&mask, argv(1)&mask, n); f != nil {
			return 0, &abort{fault: f}
		}
		return argv(0), nil

	case "wmemset":
		if ab := need(3); ab != nil {
			return 0, ab
		}
		n := int64(argv(2))
		if ab := check(sym, 0, 4*n, rt.Write); ab != nil {
			return 0, ab
		}
		raw := argv(0) & mask
		for i := int64(0); i < n; i++ {
			if f := m.space.Store(raw+uint64(4*i), 4, argv(1)); f != nil {
				return 0, &abort{fault: f}
			}
		}
		return argv(0), nil

	case "fgets", "recv":
		// fgets(buf, n) / recv(buf, n): consume the next payload from the
		// harness's dummy server. fgets reserves one byte for the NUL;
		// recv does not. Returns the number of bytes written.
		if ab := need(2); ab != nil {
			return 0, ab
		}
		limit := int64(argv(1))
		payload, ok := m.nextInput()
		if !ok || limit <= 0 {
			return 0, nil
		}
		n := int64(len(payload))
		if sym == "fgets" {
			if n > limit-1 {
				n = limit - 1
			}
		} else if n > limit {
			n = limit
		}
		if n < 0 {
			n = 0
		}
		wr := n
		if sym == "fgets" {
			wr = n + 1 // terminating NUL
		}
		if ab := check(sym, 0, wr, rt.Write); ab != nil {
			return 0, ab
		}
		if f := m.space.WriteBytes(argv(0)&mask, payload[:n]); f != nil {
			return 0, &abort{fault: f}
		}
		if sym == "fgets" {
			if f := m.space.Store((argv(0)&mask)+uint64(n), 1, 0); f != nil {
				return 0, &abort{fault: f}
			}
		}
		return uint64(n), nil

	case "calloc":
		// calloc(n, size): zeroed allocation through the runtime's
		// allocation hook (the machine's memory is zero-initialized, but
		// recycled chunks are not — clear explicitly).
		if ab := need(2); ab != nil {
			return 0, ab
		}
		total := int64(argv(0)) * int64(argv(1))
		if total <= 0 {
			return 0, nil
		}
		ptr, meta, err := m.san.Runtime.Malloc(total)
		if err != nil {
			return 0, &abort{err: err}
		}
		if metas != nil && in.Dst != prog.NoReg {
			metas[in.Dst] = meta
		}
		th.local.Mallocs++
		m.sampleRSS()
		if f := m.space.Set(ptr&mask, 0, total); f != nil {
			return 0, &abort{fault: f}
		}
		return ptr, nil

	case "realloc":
		// realloc(p, n): malloc + copy + free through the runtime hooks, so
		// realloc-of-freed and realloc-of-interior pointers are caught by
		// the Free path's checks.
		if ab := need(2); ab != nil {
			return 0, ab
		}
		oldPtr := argv(0)
		n := int64(argv(1))
		if oldPtr == 0 {
			ptr, meta, err := m.san.Runtime.Malloc(n)
			if err != nil {
				return 0, &abort{err: err}
			}
			if metas != nil && in.Dst != prog.NoReg {
				metas[in.Dst] = meta
			}
			th.local.Mallocs++
			m.sampleRSS()
			return ptr, nil
		}
		if n == 0 {
			if v := m.san.Runtime.Free(oldPtr, argm(0)); v != nil {
				return 0, th.report(v, fnName, pc)
			}
			th.local.Frees++
			m.sampleRSS()
			return 0, nil
		}
		oldSize := m.san.Runtime.UsableSize(oldPtr, argm(0))
		ptr, meta, err := m.san.Runtime.Malloc(n)
		if err != nil {
			return 0, &abort{err: err}
		}
		th.local.Mallocs++
		cp := oldSize
		if cp > n {
			cp = n
		}
		if cp > 0 {
			if f := m.space.Copy(ptr&mask, oldPtr&mask, cp); f != nil {
				return 0, &abort{fault: f}
			}
		}
		if v := m.san.Runtime.Free(oldPtr, argm(0)); v != nil {
			return 0, th.report(v, fnName, pc)
		}
		th.local.Frees++
		if metas != nil && in.Dst != prog.NoReg {
			metas[in.Dst] = meta
		}
		m.sampleRSS()
		return ptr, nil

	case "memcmp":
		if ab := need(3); ab != nil {
			return 0, ab
		}
		n := int64(argv(2))
		if ab := check(sym, 0, n, rt.Read); ab != nil {
			return 0, ab
		}
		if ab := check(sym, 1, n, rt.Read); ab != nil {
			return 0, ab
		}
		a, f := m.space.ReadBytes(argv(0)&mask, n)
		if f != nil {
			return 0, &abort{fault: f}
		}
		b, f := m.space.ReadBytes(argv(1)&mask, n)
		if f != nil {
			return 0, &abort{fault: f}
		}
		for i := int64(0); i < n; i++ {
			if a[i] != b[i] {
				if a[i] < b[i] {
					return ^uint64(0), nil // -1
				}
				return 1, nil
			}
		}
		return 0, nil

	case "strcmp", "strncmp":
		if ab := need(2); ab != nil {
			return 0, ab
		}
		limit := int64(1 << 30)
		if sym == "strncmp" {
			if ab := need(3); ab != nil {
				return 0, ab
			}
			limit = int64(argv(2))
		}
		la := strlenRaw(argv(0) & mask)
		lb := strlenRaw(argv(1) & mask)
		ca, cb := la+1, lb+1
		if ca > limit {
			ca = limit
		}
		if cb > limit {
			cb = limit
		}
		if ab := check(sym, 0, ca, rt.Read); ab != nil {
			return 0, ab
		}
		if ab := check(sym, 1, cb, rt.Read); ab != nil {
			return 0, ab
		}
		for i := int64(0); i < limit; i++ {
			x, _ := m.space.Load((argv(0)&mask)+uint64(i), 1)
			y, _ := m.space.Load((argv(1)&mask)+uint64(i), 1)
			if x != y {
				if x < y {
					return ^uint64(0), nil
				}
				return 1, nil
			}
			if x == 0 {
				break
			}
		}
		return 0, nil

	case "memchr":
		if ab := need(3); ab != nil {
			return 0, ab
		}
		n := int64(argv(2))
		if ab := check(sym, 0, n, rt.Read); ab != nil {
			return 0, ab
		}
		want := byte(argv(1))
		for i := int64(0); i < n; i++ {
			b, f := m.space.Load((argv(0)&mask)+uint64(i), 1)
			if f != nil {
				return 0, &abort{fault: f}
			}
			if byte(b) == want {
				return argv(0) + uint64(i), nil
			}
		}
		return 0, nil

	case "strnlen":
		if ab := need(2); ab != nil {
			return 0, ab
		}
		limit := int64(argv(1))
		n := strlenRaw(argv(0) & mask)
		if n > limit {
			n = limit
		}
		probe := n
		if n < limit {
			probe = n + 1 // the terminator was read too
		}
		if ab := check(sym, 0, probe, rt.Read); ab != nil {
			return 0, ab
		}
		return uint64(n), nil

	case "strncat":
		if ab := need(3); ab != nil {
			return 0, ab
		}
		dl := strlenRaw(argv(0) & mask)
		sl := strlenRaw(argv(1) & mask)
		n := int64(argv(2))
		cp := sl
		if cp > n {
			cp = n
		}
		if ab := check(sym, 1, cp, rt.Read); ab != nil {
			return 0, ab
		}
		if ab := check(sym, 0, dl+cp+1, rt.Write); ab != nil {
			return 0, ab
		}
		if f := m.space.Copy((argv(0)&mask)+uint64(dl), argv(1)&mask, cp); f != nil {
			return 0, &abort{fault: f}
		}
		if f := m.space.Store((argv(0)&mask)+uint64(dl+cp), 1, 0); f != nil {
			return 0, &abort{fault: f}
		}
		return argv(0), nil

	case "rand":
		return m.rand(), nil

	case "print_int":
		if ab := need(1); ab != nil {
			return 0, ab
		}
		m.printLine(fmt.Sprintf("%d", int64(argv(0))))
		return 0, nil

	case "print_str":
		if ab := need(1); ab != nil {
			return 0, ab
		}
		raw := argv(0) & mask
		n := strlenRaw(raw)
		if ab := check(sym, 0, n+1, rt.Read); ab != nil {
			return 0, ab
		}
		b, f := m.space.ReadBytes(raw, n)
		if f != nil {
			return 0, &abort{fault: f}
		}
		m.printLine(string(b))
		return 0, nil

	default:
		return 0, &abort{err: fmt.Errorf("interp: unknown libc function %q", sym)}
	}
}

// callExternal simulates a call into external, uninstrumented code (§II.E):
// pointer arguments are checked and stripped via the runtime, the foreign
// implementation operates on raw memory with no sanitizer involvement, and
// returned pointers are adopted (reserved entry) or re-tagged (functions
// returning one of their pointer arguments).
func (th *thread) callExternal(in *prog.Instr, sym string, args []prog.Reg, regs []uint64, metas []rt.PtrMeta, fnName string, pc int) (uint64, *abort) {
	m := th.m
	mask := m.addrMask
	run := m.san.Runtime

	raw := make([]uint64, len(args))
	for i, a := range args {
		// The §II.E wrapper: check and strip every pointer-looking argument.
		// The machine treats every argument of an external call as a
		// potential pointer, as a conservative LTO pass would.
		r, v := run.PrepareExternArg(regs[a])
		if v != nil {
			return 0, th.report(v, fnName, pc)
		}
		raw[i] = r
	}
	_ = metas // external code receives no metadata: it is uninstrumented

	var ret uint64
	switch sym {
	case "ext_identity":
		// Returns its first argument unchanged (canonical returns-own-arg).
		if len(raw) > 0 {
			ret = raw[0]
		}

	case "ext_advance":
		// Returns arg0 + arg1: a derived pointer into the same object.
		if len(raw) > 1 {
			ret = raw[0] + raw[1]
		}

	case "ext_fill":
		// ext_fill(p, n, v): uninstrumented write loop. No checks happen
		// here — if the program passed a bad pointer, memory corrupts
		// silently, exactly like calling into a legacy .so.
		if len(raw) > 2 {
			if f := m.space.Set(raw[0], byte(raw[2]), int64(raw[1])); f != nil {
				return 0, &abort{fault: f}
			}
		}
		ret = raw[0]

	case "ext_sum":
		// ext_sum(p, n): uninstrumented read loop returning a byte sum.
		if len(raw) > 1 {
			b, f := m.space.ReadBytes(raw[0], int64(raw[1]))
			if f != nil {
				return 0, &abort{fault: f}
			}
			var s uint64
			for _, x := range b {
				s += uint64(x)
			}
			ret = s
		}

	case "ext_alloc":
		// ext_alloc(n): the foreign library allocates with the stock
		// allocator; the returned pointer has unknown provenance.
		if len(raw) > 0 {
			p, err := m.heap.Alloc(int64(raw[0]))
			if err != nil {
				return 0, &abort{err: err}
			}
			m.sampleRSS()
			ret = p
		}

	case "ext_free":
		// ext_free(p): the foreign library frees through the stock
		// allocator, bypassing all sanitizer bookkeeping.
		if len(raw) > 0 {
			m.heap.Free(raw[0])
		}

	case "getenv":
		// Returns a pointer to foreign static storage ("VALUE\0").
		p, err := m.heap.Alloc(16)
		if err != nil {
			return 0, &abort{err: err}
		}
		if f := m.space.WriteBytes(p, []byte("VALUE\x00")); f != nil {
			return 0, &abort{fault: f}
		}
		m.sampleRSS()
		ret = p

	default:
		return 0, &abort{err: fmt.Errorf("interp: unknown external function %q", sym)}
	}

	if in.Has(prog.FlagRetIsArg0) && len(args) > 0 {
		// Re-apply the stripped tag of arg0 to the returned pointer (§II.E).
		return (ret & mask) | (regs[args[0]] &^ mask), nil
	}
	if in.Has(prog.FlagRetPtr) {
		return run.AdoptExternRet(ret), nil
	}
	return ret, nil
}

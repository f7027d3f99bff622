// Package alloc implements the machine's stock memory allocators: a
// glibc-style heap, per-thread stacks and a static globals segment.
//
// CECSan's compatibility claim (§I, §II) is that it does NOT replace the
// allocator — unlike ASan, which substitutes its own. To exercise that claim
// every sanitizer in this repository, including the ASan model, sits on top
// of this one allocator; ASan's redzones and quarantine are layered above it
// exactly the way its runtime layers them above the system allocator.
//
// Like glibc, the heap recycles freed chunks immediately (LIFO per size
// class) and performs no integrity checking: freeing a pointer that is not a
// live chunk base is silent undefined behaviour (a counter records it). That
// silence is what makes undetected temporal bugs "succeed" in the test
// harness, mirroring real execution.
package alloc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Segment layout. Everything sits below mem.SpanSize (4 GiB); see the mem
// package for why dereferencing a still-tagged pointer then faults.
const (
	// GlobalsBase is the start of the static data segment.
	GlobalsBase uint64 = 16 << 20
	// GlobalsLimit is the end of the static data segment.
	GlobalsLimit uint64 = 64 << 20
	// StackBase is the start of the stack region; each thread carves a
	// fixed-size stack out of it.
	StackBase uint64 = 64 << 20
	// StackLimit is the end of the stack region.
	StackLimit uint64 = 256 << 20
	// HeapBase is the start of the heap segment.
	HeapBase uint64 = 256 << 20
	// HeapLimit is the end of the heap segment.
	HeapLimit uint64 = 4096 << 20
	// ThreadStackSize is the size of one thread's stack.
	ThreadStackSize uint64 = 8 << 20
	// MaxThreads is the number of thread stacks the stack region holds:
	// thread ids 0 (the main thread) to MaxThreads-1.
	MaxThreads = int((StackLimit - StackBase) / ThreadStackSize)
)

// Align is the allocation alignment guarantee, matching glibc's 16 bytes.
const Align = 16

// ErrOutOfMemory is returned when a segment is exhausted.
var ErrOutOfMemory = errors.New("alloc: out of memory")

// Segment identifies which region an address belongs to.
type Segment int

// Segment values. They start at 1 so the zero value is recognizably unset.
const (
	SegNone Segment = iota
	SegGlobals
	SegStack
	SegHeap
)

// String returns the segment name.
func (s Segment) String() string {
	switch s {
	case SegGlobals:
		return "global"
	case SegStack:
		return "stack"
	case SegHeap:
		return "heap"
	default:
		return "unmapped"
	}
}

// SegmentOf classifies a raw (untagged) address.
func SegmentOf(addr uint64) Segment {
	switch {
	case addr >= GlobalsBase && addr < GlobalsLimit:
		return SegGlobals
	case addr >= StackBase && addr < StackLimit:
		return SegStack
	case addr >= HeapBase && addr < HeapLimit:
		return SegHeap
	default:
		return SegNone
	}
}

// roundUp rounds n up to the next multiple of Align.
func roundUp(n int64) int64 {
	if n <= 0 {
		n = 1
	}
	return (n + Align - 1) &^ (Align - 1)
}

// Heap is the glibc-analogue heap allocator: bump allocation from a segment
// plus LIFO size-class free lists for immediate reuse. It is safe for
// concurrent use (one arena lock, like a single-arena malloc).
type Heap struct {
	mu   sync.Mutex
	brk  uint64 // bump pointer
	free map[int64][]uint64

	live map[uint64]int64 // base -> rounded size, live chunks only

	liveBytes  int64
	peakLive   int64
	liveCount  int64
	allocCount int64
	freeErrors int64 // invalid/double frees silently ignored (UB)

	// faultHook, when set, is consulted before each allocation; a non-nil
	// return fails the allocation with that error. Fault injection installs
	// it to exercise OOM paths deterministically; Reset clears it.
	faultHook atomic.Pointer[func() error]
}

// NewHeap returns an empty heap over the heap segment.
func NewHeap() *Heap {
	return &Heap{
		brk:  HeapBase,
		free: make(map[int64][]uint64),
		live: make(map[uint64]int64),
	}
}

// Alloc returns the base address of a new chunk of at least size bytes,
// 16-byte aligned. Size is rounded up to the allocator's class size.
func (h *Heap) Alloc(size int64) (uint64, error) {
	if hook := h.faultHook.Load(); hook != nil {
		// Called before the lock is taken: a hook that panics (injected
		// runtime-bug simulation) must not leave the arena lock held.
		if err := (*hook)(); err != nil {
			return 0, err
		}
	}
	rs := roundUp(size)
	h.mu.Lock()
	defer h.mu.Unlock()

	var base uint64
	if fl := h.free[rs]; len(fl) > 0 {
		base = fl[len(fl)-1]
		h.free[rs] = fl[:len(fl)-1]
	} else {
		if h.brk+uint64(rs) > HeapLimit {
			return 0, fmt.Errorf("%w: heap segment exhausted (brk=%#x, request=%d)", ErrOutOfMemory, h.brk, rs)
		}
		base = h.brk
		h.brk += uint64(rs)
	}
	h.live[base] = rs
	h.liveBytes += rs
	h.liveCount++
	h.allocCount++
	if h.liveBytes > h.peakLive {
		h.peakLive = h.liveBytes
	}
	return base, nil
}

// Reset returns the heap to its freshly-constructed state: the bump pointer
// rewinds to the segment base and every free list, live chunk and counter is
// dropped. The caller must guarantee no machine is still allocating from the
// heap. A reset heap hands out byte-identical addresses to a new one.
func (h *Heap) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.brk = HeapBase
	clear(h.free)
	clear(h.live)
	h.liveBytes = 0
	h.peakLive = 0
	h.liveCount = 0
	h.allocCount = 0
	h.freeErrors = 0
	h.faultHook.Store(nil)
}

// SetFaultHook installs (or, with nil, removes) the pre-allocation fault
// hook. The caller must not race it with allocations.
func (h *Heap) SetFaultHook(f func() error) {
	if f == nil {
		h.faultHook.Store(nil)
		return
	}
	h.faultHook.Store(&f)
}

// LiveBytes returns the bytes currently allocated (rounded sizes). The
// machine's heap-budget check reads it on every allocation, so it takes the
// lock once rather than snapshotting all counters via Stats.
func (h *Heap) LiveBytes() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.liveBytes
}

// Free releases the chunk whose base address is addr. Freeing anything that
// is not a live chunk base is undefined behaviour: it is silently ignored
// and counted, just as glibc may silently corrupt its arena.
func (h *Heap) Free(addr uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	rs, ok := h.live[addr]
	if !ok {
		h.freeErrors++
		return false
	}
	delete(h.live, addr)
	h.liveBytes -= rs
	h.liveCount--
	h.free[rs] = append(h.free[rs], addr)
	return true
}

// Lookup reports whether addr is the base of a live chunk and, if so, its
// rounded size. Sanitizer runtimes that shadow the allocator (ASan's
// interceptor model) use this the way ASan consults its own chunk headers.
func (h *Heap) Lookup(addr uint64) (int64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	rs, ok := h.live[addr]
	return rs, ok
}

// Stats is a snapshot of heap counters.
type Stats struct {
	LiveBytes  int64
	PeakLive   int64
	LiveCount  int64
	AllocCount int64
	FreeErrors int64
	BrkBytes   int64 // total segment bytes ever bumped
}

// Stats returns a consistent snapshot of the heap counters.
func (h *Heap) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Stats{
		LiveBytes:  h.liveBytes,
		PeakLive:   h.peakLive,
		LiveCount:  h.liveCount,
		AllocCount: h.allocCount,
		FreeErrors: h.freeErrors,
		BrkBytes:   int64(h.brk - HeapBase),
	}
}

// Stack is one thread's bump stack (grown upward for simplicity; direction
// does not matter to any sanitizer here). Frames save and restore the stack
// pointer; allocas are served from the current frame. A Stack is used by a
// single thread and needs no lock.
type Stack struct {
	base  uint64
	limit uint64
	sp    uint64
	peak  uint64
}

// NewStack carves the tid-th thread stack out of the stack region.
func NewStack(tid int) (*Stack, error) {
	base := StackBase + uint64(tid)*ThreadStackSize
	if base+ThreadStackSize > StackLimit {
		return nil, fmt.Errorf("alloc: thread id %d exceeds stack region", tid)
	}
	return &Stack{base: base, limit: base + ThreadStackSize, sp: base}, nil
}

// Mark returns the current stack pointer, to be passed to Release at frame
// exit.
func (s *Stack) Mark() uint64 { return s.sp }

// Release pops everything allocated since the corresponding Mark.
func (s *Stack) Release(mark uint64) { s.sp = mark }

// Alloc reserves size bytes, 16-byte aligned, in the current frame.
func (s *Stack) Alloc(size int64) (uint64, error) {
	rs := roundUp(size)
	if s.sp+uint64(rs) > s.limit {
		return 0, fmt.Errorf("%w: stack overflow (sp=%#x)", ErrOutOfMemory, s.sp)
	}
	addr := s.sp
	s.sp += uint64(rs)
	if s.sp-s.base > s.peak {
		s.peak = s.sp - s.base
	}
	return addr, nil
}

// PeakBytes returns the high-water mark of this stack.
func (s *Stack) PeakBytes() int64 { return int64(s.peak) }

// Reset rewinds the stack to empty and clears its high-water mark.
func (s *Stack) Reset() {
	s.sp = s.base
	s.peak = 0
}

// Globals lays out the static data segment at program load.
type Globals struct {
	mu     sync.Mutex
	next   uint64
	byName map[string]GlobalDef
	order  []string
}

// GlobalDef records one laid-out global object.
type GlobalDef struct {
	Name string
	Addr uint64
	Size int64
}

// NewGlobals returns an empty globals layout.
func NewGlobals() *Globals {
	return &Globals{next: GlobalsBase, byName: make(map[string]GlobalDef)}
}

// Define places a global of the given size and returns its address. Defining
// the same name twice is a linker error.
func (g *Globals) Define(name string, size int64) (uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.byName[name]; dup {
		return 0, fmt.Errorf("alloc: global %q defined twice", name)
	}
	rs := roundUp(size)
	if g.next+uint64(rs) > GlobalsLimit {
		return 0, fmt.Errorf("%w: globals segment exhausted", ErrOutOfMemory)
	}
	def := GlobalDef{Name: name, Addr: g.next, Size: size}
	g.byName[name] = def
	g.order = append(g.order, name)
	g.next += uint64(rs)
	return def.Addr, nil
}

// Reset returns the layout to its freshly-constructed state, forgetting all
// definitions. A reset layout lays out byte-identical addresses to a new one.
func (g *Globals) Reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.next = GlobalsBase
	clear(g.byName)
	g.order = g.order[:0]
}

// Lookup returns the definition of a named global.
func (g *Globals) Lookup(name string) (GlobalDef, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	def, ok := g.byName[name]
	return def, ok
}

// All returns the definitions in layout order.
func (g *Globals) All() []GlobalDef {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]GlobalDef, 0, len(g.order))
	for _, n := range g.order {
		out = append(out, g.byName[n])
	}
	return out
}

// TotalBytes returns the bytes laid out so far.
func (g *Globals) TotalBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return int64(g.next - GlobalsBase)
}

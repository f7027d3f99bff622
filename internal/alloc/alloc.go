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

// classMax is the largest rounded size whose free list sits in the heap's
// class table; larger classes share a map. The bound comes from counting
// Alloc calls per perfbench workload: serve never allocates past 64 B, and
// spec's classes above 4 KiB (32 KiB to 16 MiB) take 0.006% of its calls,
// but 19% of juliet's calls and 31% of its frees are the 128–132 KiB
// chunks of its quarantine-eviction shapes, which the table must cover.
const classMax = 256 << 10

// freeList is one size class's LIFO free list. listed records that the
// class is on the heap's dirty list, so Reset visits it.
type freeList struct {
	addrs  []uint64
	listed bool
}

// livePageLen is the number of live-table entries in one page: 16 KiB of
// heap at one entry per Align bytes.
const livePageLen = 1024

// livePage is one page of the live table: the rounded size, in Align
// units, of the live chunk starting at each Align-aligned address it
// covers, and 0 where none starts.
type livePage [livePageLen]uint32

// Heap is the glibc-analogue heap allocator: bump allocation from a segment
// plus LIFO size-class free lists for immediate reuse. It is safe for
// concurrent use (one arena lock, like a single-arena malloc).
//
// Its bookkeeping uses no map on the common path. Free lists of rounded
// sizes up to classMax sit in a table indexed by rs/Align, grown to the
// largest class freed so far, so a heap that only churns small chunks
// keeps a small table. Live chunk sizes sit in a
// table indexed by (base-HeapBase)/Align, paged so that it grows with brk
// and a page exists only where a chunk base landed: a huge chunk costs one
// page, not an entry per 16 bytes it spans. Reset costs what the run used:
// the classes it freed into and the pages it wrote.
type Heap struct {
	mu      sync.Mutex
	brk     uint64     // bump pointer
	classes []freeList // indexed by rs/Align, rs <= classMax
	dirty   []int32    // classes listed since the last Reset
	large   map[int64][]uint64

	// live[i] is the page covering table entries [i*livePageLen,
	// (i+1)*livePageLen), nil until a chunk base lands in it. pages lists
	// the allocated ones; spare keeps zeroed pages for reuse after Reset.
	live  []*livePage
	pages []int32
	spare []*livePage

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
	return &Heap{brk: HeapBase, large: make(map[int64][]uint64)}
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
	rs := roundUp(size) // negative when the rounding overflows
	h.mu.Lock()
	defer h.mu.Unlock()

	var base uint64
	if fl := h.freeList(rs); len(fl) > 0 {
		base = fl[len(fl)-1]
		h.setFreeList(rs, fl[:len(fl)-1])
	} else {
		if rs < 0 || h.brk+uint64(rs) > HeapLimit {
			return 0, fmt.Errorf("%w: heap segment exhausted (brk=%#x, request=%d)", ErrOutOfMemory, h.brk, rs)
		}
		base = h.brk
		h.brk += uint64(rs)
	}
	h.setLive(base, rs)
	h.liveBytes += rs
	h.liveCount++
	h.allocCount++
	if h.liveBytes > h.peakLive {
		h.peakLive = h.liveBytes
	}
	return base, nil
}

// freeList returns class rs's free list; h.mu must be held.
func (h *Heap) freeList(rs int64) []uint64 {
	switch {
	case rs < 0:
		return nil
	case rs <= classMax:
		if k := rs / Align; k < int64(len(h.classes)) {
			return h.classes[k].addrs
		}
		return nil
	default:
		return h.large[rs]
	}
}

// setFreeList replaces class rs's free list, growing the class table to
// reach it and listing the class for Reset the first time it is set; h.mu
// must be held.
func (h *Heap) setFreeList(rs int64, fl []uint64) {
	if rs > classMax {
		h.large[rs] = fl
		return
	}
	k := int(rs / Align)
	if k >= len(h.classes) {
		h.classes = append(h.classes, make([]freeList, k+1-len(h.classes))...)
	}
	c := &h.classes[k]
	c.addrs = fl
	if !c.listed {
		c.listed = true
		h.dirty = append(h.dirty, int32(k))
	}
}

// setLive records a live chunk of rounded size rs at base, allocating its
// table page on first use; h.mu must be held.
func (h *Heap) setLive(base uint64, rs int64) {
	i := (base - HeapBase) / Align
	p := int(i / livePageLen)
	for len(h.live) <= p {
		h.live = append(h.live, nil)
	}
	pg := h.live[p]
	if pg == nil {
		if n := len(h.spare); n > 0 {
			pg = h.spare[n-1]
			h.spare = h.spare[:n-1]
		} else {
			pg = new(livePage)
		}
		h.live[p] = pg
		h.pages = append(h.pages, int32(p))
	}
	pg[i%livePageLen] = uint32(rs / Align)
}

// liveEntry returns the live-table entry for addr, or nil when addr cannot
// be a chunk base; h.mu must be held.
func (h *Heap) liveEntry(addr uint64) *uint32 {
	if addr < HeapBase || addr%Align != 0 {
		return nil
	}
	i := (addr - HeapBase) / Align
	if p := i / livePageLen; p < uint64(len(h.live)) && h.live[p] != nil {
		return &h.live[p][i%livePageLen]
	}
	return nil
}

// Reset returns the heap to its freshly-constructed state: the bump pointer
// rewinds to the segment base and every free list, live chunk and counter is
// dropped. The caller must guarantee no machine is still allocating from the
// heap. A reset heap hands out byte-identical addresses to a new one.
func (h *Heap) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.brk = HeapBase
	for _, k := range h.dirty {
		h.classes[k] = freeList{addrs: h.classes[k].addrs[:0]}
	}
	h.dirty = h.dirty[:0]
	if len(h.large) > 0 {
		clear(h.large)
	}
	for _, p := range h.pages {
		pg := h.live[p]
		h.live[p] = nil
		clear(pg[:])
		h.spare = append(h.spare, pg)
	}
	h.pages = h.pages[:0]
	h.live = h.live[:0]
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
	e := h.liveEntry(addr)
	if e == nil || *e == 0 {
		h.freeErrors++
		return false
	}
	rs := int64(*e) * Align
	*e = 0
	h.liveBytes -= rs
	h.liveCount--
	h.setFreeList(rs, append(h.freeList(rs), addr))
	return true
}

// Lookup reports whether addr is the base of a live chunk and, if so, its
// rounded size. Sanitizer runtimes that shadow the allocator (ASan's
// interceptor model) use this the way ASan consults its own chunk headers.
func (h *Heap) Lookup(addr uint64) (int64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e := h.liveEntry(addr); e != nil && *e != 0 {
		return int64(*e) * Align, true
	}
	return 0, false
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

// Package interp implements the machine that executes (instrumented) IR
// programs: the stand-in for a CPU running a compiled C binary.
//
// The machine owns the simulated address space, the stock allocators, and
// the attached sanitizer runtime. Wall-clock time of Machine.Run is the
// repository's runtime-overhead metric, and the peak of
// (program resident bytes + sanitizer overhead bytes), sampled at
// allocation events, is its memory-overhead metric.
package interp

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cecsan/internal/alloc"
	"cecsan/internal/mem"
	"cecsan/internal/rt"
	"cecsan/prog"
)

// DefaultMaxInstructions bounds a single Run to catch runaway programs.
const DefaultMaxInstructions = int64(2_000_000_000)

// DefaultMaxCallDepth bounds recursion so simulated stack overflows surface
// as program errors instead of killing the host.
const DefaultMaxCallDepth = 4096

// ErrInstructionBudget is returned when a program exceeds the instruction
// budget.
var ErrInstructionBudget = errors.New("interp: instruction budget exhausted")

// ErrCallDepth is returned when a program recurses past the depth limit.
var ErrCallDepth = errors.New("interp: call depth limit exceeded")

// ErrWallBudget is the conventional cause an external watchdog passes to
// Interrupt when a run exceeds its wall-clock budget.
var ErrWallBudget = errors.New("interp: wall-clock budget exhausted")

// ErrHeapBudget is returned when a program's live heap exceeds
// Options.MaxHeapBytes.
var ErrHeapBudget = errors.New("interp: heap budget exhausted")

// PanicError is a Go panic recovered from simulated execution — a bug in a
// sanitizer runtime or the machine itself, never legal program behaviour.
// Parallel-region workers recover panics into it so one hostile case cannot
// kill the host process; the engine wraps main-thread panics the same way.
type PanicError struct {
	// Value is the stringified panic payload.
	Value string
	// Stack is the recovering goroutine's stack trace.
	Stack string
}

// Error implements the error interface.
func (e *PanicError) Error() string { return "interp: recovered panic: " + e.Value }

// CheckObserver receives one callback per executed sanitizer check, keyed by
// the check's static site (containing function + opcode pc). bytes is the
// access size the check covered and dur the wall time spent inside the
// runtime's Check call. Implementations must be safe for concurrent use
// (parallel-region threads fire checks concurrently). obs.ToolSites
// satisfies this structurally, keeping interp free of an obs import.
type CheckObserver interface {
	ObserveCheck(fn string, pc int, bytes int64, dur time.Duration)
}

// Options configures a Machine.
type Options struct {
	// MaxInstructions bounds the total executed instructions (per run).
	MaxInstructions int64
	// MaxCallDepth bounds program recursion.
	MaxCallDepth int
	// MaxHeapBytes bounds the program's live heap (rounded chunk sizes);
	// 0 = unlimited. Exceeding it aborts the run with ErrHeapBudget.
	MaxHeapBytes int64
	// AddrBits is the canonical pointer width (47 unless testing ARM64).
	AddrBits uint
	// Seed seeds the program-visible rand() stream.
	Seed uint64
	// CheckObserver, when non-nil, is invoked (with wall timing) around
	// every executed check opcode. nil keeps the check hot path free of
	// time.Now calls.
	CheckObserver CheckObserver
	// DisableFusion decodes the program without superinstructions, one
	// dispatch per instruction: the reference the fused form is tested
	// against. Results and Stats are identical either way.
	DisableFusion bool
}

// DefaultOptions returns the standard machine configuration.
func DefaultOptions() Options {
	return Options{
		MaxInstructions: DefaultMaxInstructions,
		MaxCallDepth:    DefaultMaxCallDepth,
		AddrBits:        47,
		Seed:            1,
	}
}

// Stats aggregates execution counters across all threads of a run.
type Stats struct {
	Instructions   int64
	ChecksExecuted int64
	SubPtrOps      int64
	MetaOps        int64 // per-pointer metadata propagation ops (SoftBound)
	Mallocs        int64
	Frees          int64
	LibcCalls      int64
	ExternCalls    int64

	// DegradedAllocs counts allocations whose sanitizer metadata was lost to
	// exhaustion (the CECSan entry-0 fallback); 0 for runtimes that do not
	// degrade.
	DegradedAllocs int64
	// InjectedFaults counts scheduled fault-injection events that fired
	// during the run (filled by the engine; always 0 outside fault mode).
	InjectedFaults int64

	// Temporal-hardening degradation counters (rt.TemporalStats): coverage
	// the hardened runtime traded back under pressure. Always 0 for default
	// profiles and for runtimes without the hardening modes.
	GenerationWraps     int64
	IndexSpills         int64
	QuarantineEvictions int64
	QuarantineFlushes   int64

	// PeakProgramBytes is the high-water resident size of program memory.
	PeakProgramBytes int64
	// PeakOverheadBytes is the high-water sanitizer metadata size.
	PeakOverheadBytes int64
	// PeakRSS is the high-water sum, sampled at allocation events.
	PeakRSS int64
}

// Result is the outcome of one program run.
type Result struct {
	// Violation is the sanitizer report that aborted the program, if any.
	Violation *rt.Violation
	// Fault is a machine-level crash (wild access), if any.
	Fault *mem.Fault
	// Err is an execution error: OOM, budget exhaustion, unknown symbol.
	Err error
	// Ret is main's return value when the program completed.
	Ret uint64
	// Stats are the merged execution counters.
	Stats Stats
}

// Ok reports whether the program ran to completion with no report, crash or
// error.
func (r *Result) Ok() bool { return r.Violation == nil && r.Fault == nil && r.Err == nil }

// Resources bundles the reusable per-machine execution state: the simulated
// address space, the stock allocators, the Global Pointer Table and the
// main thread's register arenas. A Resources value is what the engine's
// machine pool recycles between cases — Reset returns it to its
// freshly-constructed state, so a machine built on reset resources behaves
// byte-identically to one built on fresh ones (same addresses, same zeroed
// memory, same RSS accounting).
type Resources struct {
	Space   *mem.Space
	Heap    *alloc.Heap
	Globals *alloc.Globals

	// gptPtr/gptMeta back the machine's Global Pointer Table, indexed by
	// the program's GPT slots (prog.Link). NewOn refills them per machine,
	// so pooled reuse recycles their storage.
	gptPtr  []uint64
	gptMeta []rt.PtrMeta

	// regArena/metaArena back the main thread's call-frame register
	// windows (thread.frame clears every window it hands out). Run stores
	// the possibly grown arenas back, so a pooled run allocates none.
	regArena  []uint64
	metaArena []rt.PtrMeta

	// ops and code back the machine's decoded program (decode): NewOn
	// rewrites them per machine, so pooled reuse recycles their storage.
	ops  []op
	code []fcode
}

// NewResources allocates a fresh resource bundle for the given canonical
// pointer width.
func NewResources(addrBits uint) (*Resources, error) {
	space, err := mem.NewSpace(addrBits)
	if err != nil {
		return nil, fmt.Errorf("interp: %w", err)
	}
	return &Resources{
		Space:   space,
		Heap:    alloc.NewHeap(),
		Globals: alloc.NewGlobals(),
	}, nil
}

// Reset rewinds the bundle for reuse by a new machine. The caller must
// guarantee no machine still references it.
func (r *Resources) Reset() {
	r.Space.Reset()
	r.Heap.Reset()
	r.Globals.Reset()
	clear(r.code) // drop the last program's instructions
}

// Machine executes one instrumented program under one sanitizer runtime.
// A Machine is single-run: create a new one for each execution.
type Machine struct {
	program *prog.Program
	link    *prog.Link
	code    []fcode // decoded functions, indexed like link.Funcs
	san     rt.Sanitizer
	res     *Resources

	space   *mem.Space
	heap    *alloc.Heap
	globals *alloc.Globals

	// addrMask clears tag bits when forming raw addresses; ^0 when the
	// sanitizer does not tag pointers.
	addrMask  uint64
	trackMeta bool // per-pointer metadata frames enabled (SoftBound)

	// gptPtr is the program-visible pointer for each global, indexed by
	// GPT slot: the Global Pointer Table (§II.C.3). For tracked globals the
	// value is tagged. gptMeta is the matching per-pointer metadata.
	gptPtr  []uint64
	gptMeta []rt.PtrMeta

	opts Options

	// Input feed for fgets/recv (the harness's dummy server).
	inputMu sync.Mutex
	inputs  [][]byte

	outputMu sync.Mutex
	output   []string

	rngState atomic.Uint64

	aborted     atomic.Bool
	interrupted atomic.Pointer[interruptCause]

	// tids has bit i set while thread id i (its stack in the stack region)
	// is in use; the main thread holds id 0.
	tidMu sync.Mutex
	tids  uint64

	peakRSS  atomic.Int64
	peakProg atomic.Int64
	peakOver atomic.Int64

	// stats are merged with atomic adds: thread exits (including parallel
	// region workers) fold their local counters in concurrently.
	stats atomicStats
}

// atomicStats mirrors Stats with lock-free counters for cross-thread merges.
type atomicStats struct {
	instructions   atomic.Int64
	checksExecuted atomic.Int64
	subPtrOps      atomic.Int64
	metaOps        atomic.Int64
	mallocs        atomic.Int64
	frees          atomic.Int64
	libcCalls      atomic.Int64
	externCalls    atomic.Int64
}

// New builds a machine for an instrumented program and sanitizer pair on
// fresh resources, attaching the runtime and loading globals (including the
// GPT initialization the paper performs at the start of main).
func New(p *prog.Program, san rt.Sanitizer, opts Options) (*Machine, error) {
	if opts.AddrBits == 0 {
		opts.AddrBits = 47
	}
	res, err := NewResources(opts.AddrBits)
	if err != nil {
		return nil, err
	}
	return NewOn(res, p, san, opts)
}

// NewOn builds a machine on an existing (fresh or freshly Reset) resource
// bundle. The bundle's address-space width must match opts.AddrBits; the
// machine takes sole ownership of the bundle until its run completes.
func NewOn(res *Resources, p *prog.Program, san rt.Sanitizer, opts Options) (*Machine, error) {
	if opts.MaxInstructions <= 0 {
		opts.MaxInstructions = DefaultMaxInstructions
	}
	if opts.MaxCallDepth <= 0 {
		opts.MaxCallDepth = DefaultMaxCallDepth
	}
	if opts.AddrBits == 0 {
		opts.AddrBits = 47
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if got := res.Space.AddrBits(); got != opts.AddrBits {
		return nil, fmt.Errorf("interp: resource space has %d address bits, machine wants %d", got, opts.AddrBits)
	}
	res.gptPtr = slices.Grow(res.gptPtr[:0], len(p.Globals))[:len(p.Globals)]
	res.gptMeta = slices.Grow(res.gptMeta[:0], len(p.Globals))[:len(p.Globals)]
	m := &Machine{
		program: p,
		link:    p.Link(),
		san:     san,
		res:     res,
		space:   res.Space,
		heap:    res.Heap,
		globals: res.Globals,
		gptPtr:  res.gptPtr,
		gptMeta: res.gptMeta,
		opts:    opts,
		tids:    1,
	}
	m.rngState.Store(opts.Seed)
	m.addrMask = ^uint64(0)
	if san.Profile.PtrMask != 0 {
		m.addrMask = san.Profile.PtrMask
	}
	m.trackMeta = san.Profile.PtrMeta
	m.decode(res)

	env := rt.Env{Space: m.space, Heap: m.heap, Globals: m.globals}
	if err := san.Runtime.Attach(&env); err != nil {
		return nil, fmt.Errorf("interp: attach %s: %w", san.Runtime.Name(), err)
	}

	for slot, g := range p.Globals {
		defSize := g.Type.Size()
		tracked := g.AddressTaken && san.Profile.TrackGlobals
		if tracked && san.Profile.GlobalRedzone > 0 {
			defSize += san.Profile.GlobalRedzone // redzone-based layout change
		}
		addr, err := m.globals.Define(g.Name, defSize)
		if err != nil {
			return nil, fmt.Errorf("interp: %w", err)
		}
		if g.InitBytes != nil {
			if f := m.space.WriteBytes(addr, g.InitBytes); f != nil {
				return nil, fmt.Errorf("interp: global init: %v", f)
			}
		} else if g.Init != 0 {
			sz := g.Type.Size()
			if sz > 8 {
				sz = 8
			}
			if f := m.space.Store(addr, sz, uint64(g.Init)); f != nil {
				return nil, fmt.Errorf("interp: global init: %v", f)
			}
		}
		ptr, meta := san.Runtime.GlobalInit(g.Name, addr, g.Type.Size(), tracked)
		m.gptPtr[slot] = ptr
		m.gptMeta[slot] = meta
	}
	return m, nil
}

// Feed queues input payloads for the program's fgets/recv calls, in order —
// the dummy-server side of the paper's automation framework.
func (m *Machine) Feed(payloads ...[]byte) {
	m.inputMu.Lock()
	defer m.inputMu.Unlock()
	for _, p := range payloads {
		m.inputs = append(m.inputs, append([]byte(nil), p...))
	}
}

// nextInput pops the next queued input payload.
func (m *Machine) nextInput() ([]byte, bool) {
	m.inputMu.Lock()
	defer m.inputMu.Unlock()
	if len(m.inputs) == 0 {
		return nil, false
	}
	in := m.inputs[0]
	m.inputs = m.inputs[1:]
	return in, true
}

// Output returns the lines printed by the program.
func (m *Machine) Output() []string {
	m.outputMu.Lock()
	defer m.outputMu.Unlock()
	return append([]string(nil), m.output...)
}

func (m *Machine) printLine(s string) {
	m.outputMu.Lock()
	defer m.outputMu.Unlock()
	m.output = append(m.output, s)
}

// interruptCause carries the error an external Interrupt asked the run to
// stop with.
type interruptCause struct{ err error }

// Interrupt asynchronously stops the run: threads notice at the next loop
// backedge or call and abort with cause (ErrWallBudget from the engine's
// watchdog, typically). The first cause wins; a nil cause still stops the
// run but leaves the generic cross-thread abort error. Safe to call from any
// goroutine, including after the run has finished (then a no-op).
func (m *Machine) Interrupt(cause error) {
	if cause != nil {
		m.interrupted.CompareAndSwap(nil, &interruptCause{err: cause})
	}
	m.aborted.Store(true)
}

// rand returns the next value of the program-visible deterministic LCG.
func (m *Machine) rand() uint64 {
	for {
		old := m.rngState.Load()
		next := old*6364136223846793005 + 1442695040888963407
		if m.rngState.CompareAndSwap(old, next) {
			return next >> 17
		}
	}
}

// sampleRSS updates the peak footprint gauges. Called at allocation events,
// where real RSS changes.
func (m *Machine) sampleRSS() {
	resident := m.space.TouchedBytes()
	over := m.san.Runtime.OverheadBytes()
	updateMax(&m.peakProg, resident)
	updateMax(&m.peakOver, over)
	updateMax(&m.peakRSS, resident+over)
}

func updateMax(g *atomic.Int64, v int64) {
	for {
		old := g.Load()
		if v <= old || g.CompareAndSwap(old, v) {
			return
		}
	}
}

// Run executes the program's entry function to completion or abort.
func (m *Machine) Run() *Result {
	res := &Result{}
	entry := m.link.Entry
	if entry < 0 {
		res.Err = fmt.Errorf("interp: entry %q not found", m.program.Entry)
		return res
	}
	stack, err := alloc.NewStack(0)
	if err != nil {
		res.Err = err
		return res
	}
	th := &thread{
		m: m, stack: stack, budget: m.opts.MaxInstructions,
		regArena: m.res.regArena, metaArena: m.res.metaArena,
	}
	regs, metas := th.frame(m.code[entry].numRegs)
	ret, _, ab := th.call(entry, regs, metas, 0)
	m.res.regArena, m.res.metaArena = th.regArena, th.metaArena
	th.flushStats()
	m.sampleRSS()

	if ab != nil {
		res.Violation = ab.violation
		res.Fault = ab.fault
		res.Err = ab.err
	} else {
		res.Ret = ret
	}
	res.Stats = Stats{
		Instructions:   m.stats.instructions.Load(),
		ChecksExecuted: m.stats.checksExecuted.Load(),
		SubPtrOps:      m.stats.subPtrOps.Load(),
		MetaOps:        m.stats.metaOps.Load(),
		Mallocs:        m.stats.mallocs.Load(),
		Frees:          m.stats.frees.Load(),
		LibcCalls:      m.stats.libcCalls.Load(),
		ExternCalls:    m.stats.externCalls.Load(),
	}
	res.Stats.PeakProgramBytes = m.peakProg.Load()
	res.Stats.PeakOverheadBytes = m.peakOver.Load()
	res.Stats.PeakRSS = m.peakRSS.Load()
	if d, ok := m.san.Runtime.(rt.Degrader); ok {
		res.Stats.DegradedAllocs = d.DegradedAllocs()
	}
	if th, ok := m.san.Runtime.(rt.TemporalHardened); ok {
		ts := th.TemporalStats()
		res.Stats.GenerationWraps = ts.GenerationWraps
		res.Stats.IndexSpills = ts.IndexSpills
		res.Stats.QuarantineEvictions = ts.QuarantineEvictions
		res.Stats.QuarantineFlushes = ts.QuarantineFlushes
	}
	return res
}

// mergeStats folds a thread's local counters into the machine totals with
// atomic adds, keeping concurrent parallel-region exits off a shared lock.
func (m *Machine) mergeStats(s *Stats) {
	m.stats.instructions.Add(s.Instructions)
	m.stats.checksExecuted.Add(s.ChecksExecuted)
	m.stats.subPtrOps.Add(s.SubPtrOps)
	m.stats.metaOps.Add(s.MetaOps)
	m.stats.mallocs.Add(s.Mallocs)
	m.stats.frees.Add(s.Frees)
	m.stats.libcCalls.Add(s.LibcCalls)
	m.stats.externCalls.Add(s.ExternCalls)
}

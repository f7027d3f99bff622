// Package rt defines the contract between the machine (internal/interp), the
// instrumentation pass (internal/instrument) and the sanitizer runtimes
// (internal/core and internal/sanitizers/...).
//
// A sanitizer is a pair: a Profile describing what the compiler pass inserts
// (which accesses get checks, whether pointers are tagged, whether sub-object
// narrowing or per-pointer metadata propagation code is emitted, which
// optimizations run), and a Runtime implementing the semantics of the
// inserted operations. This split mirrors the paper's "compiler extension +
// runtime support library" architecture (§III).
package rt

import (
	"fmt"

	"cecsan/internal/alloc"
	"cecsan/internal/mem"
)

// AccessKind distinguishes reads from writes.
type AccessKind uint8

// Access kinds.
const (
	Read AccessKind = iota + 1
	Write
)

// String returns "read" or "write".
func (k AccessKind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Kind classifies a detected memory-safety violation.
type Kind uint8

// Violation kinds.
const (
	KindUnknown Kind = iota
	KindOOBRead
	KindOOBWrite
	KindUseAfterFree
	KindDoubleFree
	KindInvalidFree
	KindSubObjectOverflow
)

// String returns the ASan-style report name of the kind.
func (k Kind) String() string {
	switch k {
	case KindOOBRead:
		return "buffer-overflow-read"
	case KindOOBWrite:
		return "buffer-overflow-write"
	case KindUseAfterFree:
		return "use-after-free"
	case KindDoubleFree:
		return "double-free"
	case KindInvalidFree:
		return "invalid-free"
	case KindSubObjectOverflow:
		return "sub-object-overflow"
	default:
		return "unknown-violation"
	}
}

// Violation is a sanitizer report. The runtime fills the memory facts; the
// interpreter attaches the code location before surfacing it.
type Violation struct {
	Kind Kind
	// Ptr is the pointer as the program held it (possibly tagged).
	Ptr uint64
	// Addr is the raw faulting address.
	Addr uint64
	// Size is the access size in bytes (0 when not applicable).
	Size int64
	// Seg classifies the object's segment when known.
	Seg alloc.Segment
	// Detail is a free-form explanation from the runtime.
	Detail string
	// Func and PC locate the faulting instruction (filled by the machine).
	Func string
	PC   int
}

// Error implements the error interface with an ASan-flavoured one-liner.
func (v *Violation) Error() string {
	return fmt.Sprintf("%s: %s of %d bytes at %#x (ptr %#x, %s segment) in %s@%d: %s",
		"SANITIZER", v.Kind, v.Size, v.Addr, v.Ptr, v.Seg, v.Func, v.PC, v.Detail)
}

// PtrMeta is the per-pointer metadata SoftBound+CETS propagates explicitly:
// spatial bounds plus the CETS lock-and-key temporal pair. The zero value
// means "no metadata" (a pointer from uninstrumented code); runtimes that
// use PtrMeta skip checks for it, which is SoftBound's compatibility rule.
type PtrMeta struct {
	Base  uint64
	Bound uint64
	Key   uint64
	Lock  *uint64
}

// Valid reports whether the metadata carries bounds.
func (m PtrMeta) Valid() bool { return m.Bound != 0 }

// Env hands the machine's facilities to a runtime at attach time.
type Env struct {
	Space *mem.Space
	Heap  *alloc.Heap
}

// Runtime is a sanitizer runtime library. All methods are called by the
// machine while executing instrumented code. Implementations must be safe
// for concurrent use by parallel regions.
type Runtime interface {
	// Name returns the sanitizer's display name.
	Name() string

	// Attach binds the runtime to a machine and initializes its metadata
	// structures (CECSan's constructor mmap'ing the table, ASan's shadow).
	Attach(env *Env) error

	// Malloc services an instrumented heap allocation: it allocates from
	// env.Heap, records metadata, and returns the program-visible pointer
	// (tagged, for tagging runtimes) plus its per-pointer metadata.
	// A non-nil error aborts the program (OOM), which is not a violation.
	Malloc(size int64) (uint64, PtrMeta, error)

	// Free services an instrumented deallocation, performing the runtime's
	// deallocation checks (Algorithm 2 for CECSan). On success it releases
	// metadata and returns the chunk to env.Heap.
	Free(ptr uint64, meta PtrMeta) *Violation

	// StackAlloc registers a stack object at raw address raw. tracked
	// reports whether the instrumentation classified it unsafe (§II.C.3).
	// It returns the program-visible pointer.
	StackAlloc(raw uint64, size int64, tracked bool) (uint64, PtrMeta)

	// StackRelease ends a tracked stack object's lifetime at function exit.
	StackRelease(ptr uint64, size int64)

	// GlobalInit registers a global object at load time and returns the
	// program-visible pointer for it (the GPT entry value for CECSan).
	// tracked reports whether the object was classified unsafe.
	GlobalInit(name string, raw uint64, size int64, tracked bool) (uint64, PtrMeta)

	// Check validates an access of size bytes at ptr+off before it happens.
	Check(ptr uint64, meta PtrMeta, off, size int64, k AccessKind) *Violation

	// Addr translates a program-visible pointer to the raw address used for
	// the actual memory operation (tag stripping).
	Addr(ptr uint64) uint64

	// UsableSize returns the allocation size behind a live heap pointer
	// (malloc_usable_size), or -1 when unknown — used by the realloc path.
	UsableSize(ptr uint64, meta PtrMeta) int64

	// SubPtr derives a §II.D narrowed sub-object pointer for the member at
	// [off, off+size) of base.
	SubPtr(base uint64, off, size int64) (uint64, PtrMeta)

	// SubRelease drops the narrowed pointer's metadata when it leaves scope.
	SubRelease(ptr uint64)

	// PrepareExternArg checks and strips a pointer argument before it is
	// passed to external, uninstrumented code (§II.E).
	PrepareExternArg(ptr uint64) (uint64, *Violation)

	// AdoptExternRet wraps a pointer returned from uninstrumented code
	// (reserved metadata entry 0 for CECSan: usable, never checked).
	AdoptExternRet(raw uint64) uint64

	// LibcCheck validates the [ptr+off, ptr+off+n) range touched by a
	// simulated C library function. For interceptor-based sanitizers this
	// is the interceptor; fn lets models reproduce documented interceptor
	// gaps (e.g. missing wide-character wrappers).
	LibcCheck(fn string, ptr uint64, meta PtrMeta, n int64, k AccessKind) *Violation

	// LoadPtrMeta and StorePtrMeta maintain the in-memory shadow of pointer
	// metadata for per-pointer runtimes (SoftBound); no-ops otherwise.
	LoadPtrMeta(addr uint64) PtrMeta
	StorePtrMeta(addr uint64, meta PtrMeta)

	// OverheadBytes returns the runtime's current metadata memory footprint
	// (shadow pages touched, redzones, quarantine, tables) for the RSS
	// model.
	OverheadBytes() int64
}

// MetaTableClamper is implemented by runtimes whose metadata structure has a
// hard capacity that fault injection can clamp, making exhaustion reachable
// without millions of live objects. The clamp is run state: the runtime's
// reset must remove it.
type MetaTableClamper interface {
	// ClampMetaTable caps the metadata structure at n allocatable entries;
	// 0 removes the cap.
	ClampMetaTable(n uint64)
}

// Degrader is implemented by runtimes that degrade gracefully under metadata
// exhaustion — trading coverage for functionality instead of aborting, the
// CECSan reserved-entry-0 fallback (§II.E, §V).
type Degrader interface {
	// DegradedAllocs returns how many allocations this run lost (or, with
	// overflow chaining, rerouted) their metadata protection.
	DegradedAllocs() int64
}

// TemporalStats counts the graceful degradations of the temporal-hardening
// modes: each field is coverage the hardened runtime gave back under
// pressure rather than aborting, the same trade DegradedAllocs records for
// table exhaustion.
type TemporalStats struct {
	// GenerationWraps counts entry generation counters that wrapped to 0,
	// making the next incarnation indistinguishable from the first.
	GenerationWraps int64
	// IndexSpills counts delayed-reuse indices re-threaded early because the
	// free structure was exhausted.
	IndexSpills int64
	// QuarantineEvictions counts chunks released early because the
	// quarantine byte budget overflowed.
	QuarantineEvictions int64
	// QuarantineFlushes counts whole-quarantine releases on the OOM retry
	// path.
	QuarantineFlushes int64
	// QuarantinedBytes is the bytes currently held back from reuse.
	QuarantinedBytes int64
}

// TemporalHardened is implemented by runtimes carrying the temporal-reuse
// mitigations (generation stamping, delayed index reuse, address
// quarantine); the machine folds the counters into interp.Stats after a run.
type TemporalHardened interface {
	TemporalStats() TemporalStats
}

// Resettable is implemented by runtimes whose per-process state can be
// restored to freshly-constructed form. The execution engine recycles such
// runtimes across machines instead of reconstructing them, which matters for
// runtimes whose constructor is dominated by a large fixed allocation (the
// CECSan metadata table). Runtimes with construction-time randomness (the
// HWASan tag RNG) must NOT implement it: recycling them would change the
// per-run tag sequence relative to a fresh process.
type Resettable interface {
	// ResetRuntime restores the runtime to its post-constructor state.
	// The caller rebinds the environment with Attach before reuse.
	ResetRuntime()
}

// Profile describes what the instrumentation pass emits for a sanitizer.
type Profile struct {
	// Name is the sanitizer name (matches Runtime.Name).
	Name string

	// CheckLoads / CheckStores insert OpCheckAccess before memory reads and
	// writes.
	CheckLoads  bool
	CheckStores bool

	// TagPointers marks runtimes whose program-visible pointers carry tag
	// bits, requiring strip/re-tag wrappers at external-call boundaries.
	TagPointers bool

	// PtrMask is AND-ed with a pointer to form the raw dereference address
	// (the compiled-in strip the pass emits before each memory operation).
	// Zero means "no tagging": the machine uses the identity mask.
	PtrMask uint64

	// SubObject inserts OpSubPtr/OpSubRelease narrowing around composite
	// member accesses (§II.D).
	SubObject bool

	// PtrMeta inserts per-pointer metadata propagation (OpPtrMeta*) after
	// pointer producers, loads and stores — the SoftBound compilation
	// scheme the paper contrasts with implicit tag propagation.
	PtrMeta bool

	// TrackStack instruments unsafe stack objects (metadata in prologue,
	// release in epilogue).
	TrackStack bool

	// TrackGlobals instruments unsafe globals (CECSan's GPT).
	TrackGlobals bool

	// Optimizations (§II.F; OptRedundant additionally models ASan--'s
	// debloating passes).
	OptRedundant     bool
	OptLoopInvariant bool
	OptMonotonic     bool
	OptTypeBased     bool

	// RedzoneBased restricts the loop-invariant optimization to loads:
	// hoisted stores could overwrite redzones (§II.F.1's contrast).
	RedzoneBased bool

	// CheckStep is the §II.F.1 monotonic grouping constant (default 5).
	CheckStep int64

	// InterceptorLibc marks runtimes that check libc calls in interceptors
	// rather than instrumenting callers; callers then skip the explicit
	// range check and rely on LibcCheck.
	InterceptorLibc bool

	// StackRedzone and GlobalRedzone request extra bytes of spacing around
	// tracked stack objects and unsafe globals. Redzone-based sanitizers
	// need the layout change; CECSan's profile leaves both zero — the
	// paper's "unaltered memory layout" compatibility property (§I).
	StackRedzone  int64
	GlobalRedzone int64
}

// Sanitizer bundles a runtime with its instrumentation profile.
type Sanitizer struct {
	Runtime Runtime
	Profile Profile
}

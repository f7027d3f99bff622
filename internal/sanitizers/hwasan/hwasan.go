// Package hwasan models Hardware-assisted AddressSanitizer (HWASan /
// MTE-style memory tagging): 8-bit random tags in the pointer's top byte
// matched against per-16-byte-granule memory tags.
//
// The model reproduces the design-level misses Table II reports:
//
//   - intra-granule overflows (an odd-sized buffer's last 16-byte granule
//     is uniformly tagged, so off-by-small overflows inside it pass);
//   - sub-object overflows (no intra-object granularity);
//   - invalid free (deallocation only compares tags, which match for
//     interior pointers — CWE761 = 0%);
//   - use-after-return (stack frames are not retagged on return);
//   - probabilistic tag collisions (1/255 on reuse).
package hwasan

import (
	"fmt"
	"strings"
	"sync"

	"cecsan/internal/alloc"
	"cecsan/internal/mem"
	"cecsan/internal/rt"
)

// tagGranule is the MTE tagging granularity.
const tagGranule = 16

// tagShift places the tag in the pointer's top byte.
const tagShift = 56

// Runtime is the HWASan model (rt.Runtime implementation).
type Runtime struct {
	env rt.Env

	// tags holds one memory tag per 16-byte granule of the space,
	// materialized lazily like real HWASan's shadow.
	tags *mem.ChunkStore

	mu   sync.Mutex
	rng  uint64
	seed uint64 // constructor seed; ResetRuntime rewinds rng to it

	// chunkSize remembers allocation sizes for retag-on-free.
	chunkSize map[uint64]int64
}

var (
	_ rt.Runtime    = (*Runtime)(nil)
	_ rt.Resettable = (*Runtime)(nil)
)

// New constructs an HWASan model runtime with a deterministic tag stream.
func New(seed uint64) *Runtime {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Runtime{
		tags:      mem.NewChunkStore(mem.SpanSize / tagGranule),
		rng:       seed,
		seed:      seed,
		chunkSize: make(map[uint64]int64),
	}
}

// Sanitizer returns the HWASan bundle: checked loads/stores, interceptor
// libc (with the wide gap), tagged pointers stripped via the top byte, no
// layout changes (MTE needs none), no check-reducing optimizations.
func Sanitizer(seed uint64) rt.Sanitizer {
	return rt.Sanitizer{Runtime: New(seed), Profile: ProfileFor()}
}

// ProfileFor derives the HWASan instrumentation profile without
// constructing a runtime. The profile is independent of the tag seed.
func ProfileFor() rt.Profile {
	return rt.Profile{
		Name:            "HWASan",
		CheckLoads:      true,
		CheckStores:     true,
		TagPointers:     true,
		PtrMask:         (uint64(1) << tagShift) - 1,
		TrackStack:      true,
		TrackGlobals:    true,
		InterceptorLibc: true,
	}
}

// Name implements rt.Runtime.
func (r *Runtime) Name() string { return "HWASan" }

// Attach implements rt.Runtime. The (lazy) tag memory is reserved by New,
// and a pooled runtime keeps its (reset) tags across attaches.
func (r *Runtime) Attach(env *rt.Env) error {
	r.env = *env
	return nil
}

// ResetRuntime implements rt.Resettable: drop every materialized tag chunk
// (zeroed and kept for reuse), forget allocation sizes, and rewind the tag
// RNG to the constructor seed — byte-for-byte the state New(seed) returns,
// including the deterministic tag stream.
func (r *Runtime) ResetRuntime() {
	r.tags.Reset()
	r.mu.Lock()
	r.rng = r.seed
	clear(r.chunkSize)
	r.mu.Unlock()
}

// nextTag draws a uniformly random non-zero 8-bit tag.
func (r *Runtime) nextTag() byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		r.rng = r.rng*6364136223846793005 + 1442695040888963407
		t := byte(r.rng >> 56)
		if t != 0 {
			return t
		}
	}
}

// tagByte returns the memory tag of the granule holding addr.
func (r *Runtime) tagByte(addr uint64) byte { return r.tags.Byte(addr / tagGranule) }

// setTags tags the granules covering [addr, addr+size). The tag bytes of
// successive granules are consecutive, so the region is one contiguous fill.
func (r *Runtime) setTags(addr uint64, size int64, tag byte) {
	if size <= 0 {
		return
	}
	r.tags.Fill(addr/tagGranule, (size+tagGranule-1)/tagGranule, tag)
}

// tagOf extracts a pointer's tag.
func tagOf(ptr uint64) byte { return byte(ptr >> tagShift) }

// withTag returns addr with the tag applied.
func withTag(addr uint64, tag byte) uint64 { return addr | uint64(tag)<<tagShift }

// strip removes the tag byte.
func strip(ptr uint64) uint64 { return ptr & ((uint64(1) << tagShift) - 1) }

// Malloc implements rt.Runtime: allocate, round the tagged extent up to the
// granule, tag memory and pointer with a fresh random tag.
func (r *Runtime) Malloc(size int64) (uint64, rt.PtrMeta, error) {
	// MTE requires granule-aligned allocations: round up (the size class
	// padding is tagged with the object, which is why intra-granule
	// overflows pass).
	rounded := (size + tagGranule - 1) &^ (tagGranule - 1)
	raw, err := r.env.Heap.Alloc(rounded)
	if err != nil {
		return 0, rt.PtrMeta{}, err
	}
	tag := r.nextTag()
	r.setTags(raw, rounded, tag)
	r.mu.Lock()
	r.chunkSize[raw] = rounded
	r.mu.Unlock()
	return withTag(raw, tag), rt.PtrMeta{}, nil
}

// Free implements rt.Runtime: the deallocation path only verifies that the
// pointer's tag matches memory (catching double free via the retag), then
// retags and releases. Interior pointers carry the SAME tag as the chunk,
// so invalid frees pass the tag check and reach the allocator unreported —
// the CWE761 = 0% design gap.
func (r *Runtime) Free(ptr uint64, _ rt.PtrMeta) *rt.Violation {
	raw := strip(ptr)
	ptag := tagOf(ptr)
	if ptag != 0 {
		mtag := r.tagByte(raw)
		if mtag != ptag {
			return &rt.Violation{
				Kind: rt.KindDoubleFree, Ptr: ptr, Addr: raw, Seg: alloc.SegmentOf(raw),
				Detail: fmt.Sprintf("tag mismatch on free: ptr=%#x mem=%#x", ptag, mtag),
			}
		}
	}
	r.mu.Lock()
	rounded, ok := r.chunkSize[raw]
	if ok {
		delete(r.chunkSize, raw)
	}
	r.mu.Unlock()
	if !ok {
		// Interior or foreign pointer: silently forwarded (the allocator's
		// undefined behaviour), matching the 0% CWE761 row.
		r.env.Heap.Free(raw)
		return nil
	}
	// Retag with a fresh tag so stale pointers mismatch, then release for
	// immediate reuse (no quarantine).
	r.setTags(raw, rounded, r.nextTag())
	r.env.Heap.Free(raw)
	return nil
}

// StackAlloc implements rt.Runtime: tracked stack objects are tagged like
// heap chunks.
func (r *Runtime) StackAlloc(raw uint64, size int64, tracked bool) (uint64, rt.PtrMeta) {
	if !tracked {
		return raw, rt.PtrMeta{}
	}
	rounded := (size + tagGranule - 1) &^ (tagGranule - 1)
	tag := r.nextTag()
	r.setTags(raw, rounded, tag)
	return withTag(raw, tag), rt.PtrMeta{}
}

// StackRelease implements rt.Runtime: HWASan does NOT retag returning
// frames by default, so use-after-return goes undetected until the slot is
// reused by a new tagged object — the CWE416 stack gap.
func (r *Runtime) StackRelease(uint64, int64) {}

// GlobalInit implements rt.Runtime: unsafe globals are tagged.
func (r *Runtime) GlobalInit(_ string, raw uint64, size int64, tracked bool) (uint64, rt.PtrMeta) {
	if !tracked {
		return raw, rt.PtrMeta{}
	}
	rounded := (size + tagGranule - 1) &^ (tagGranule - 1)
	tag := r.nextTag()
	r.setTags(raw, rounded, tag)
	return withTag(raw, tag), rt.PtrMeta{}
}

// Check implements rt.Runtime: compare the pointer tag against the memory
// tag of every granule touched. Untagged pointers (tag 0) are never checked
// (compatibility with foreign memory).
func (r *Runtime) Check(ptr uint64, _ rt.PtrMeta, off, size int64, k rt.AccessKind) *rt.Violation {
	ptag := tagOf(ptr)
	if ptag == 0 {
		return nil
	}
	addr := strip(ptr) + uint64(off)
	if addr >= mem.SpanSize {
		return nil
	}
	end := addr + uint64(size)
	for a := addr; a < end; a = (a &^ (tagGranule - 1)) + tagGranule {
		if mtag := r.tagByte(a); mtag != ptag {
			v := &rt.Violation{Ptr: ptr, Addr: a, Size: size, Seg: alloc.SegmentOf(a)}
			if k == rt.Write {
				v.Kind = rt.KindOOBWrite
			} else {
				v.Kind = rt.KindOOBRead
			}
			v.Detail = fmt.Sprintf("tag mismatch: ptr=%#x mem=%#x", ptag, mtag)
			return v
		}
	}
	return nil
}

// Addr implements rt.Runtime.
func (r *Runtime) Addr(ptr uint64) uint64 { return strip(ptr) }

// UsableSize implements rt.Runtime via the chunk-size registry.
func (r *Runtime) UsableSize(ptr uint64, _ rt.PtrMeta) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sz, ok := r.chunkSize[strip(ptr)]; ok {
		return sz
	}
	return -1
}

// SubPtr implements rt.Runtime: no sub-object granularity (same tag).
func (r *Runtime) SubPtr(base uint64, off, _ int64) (uint64, rt.PtrMeta) {
	return base + uint64(off), rt.PtrMeta{}
}

// SubRelease implements rt.Runtime.
func (r *Runtime) SubRelease(uint64) {}

// PrepareExternArg implements rt.Runtime: strip the tag (external code does
// not run with tag checking).
func (r *Runtime) PrepareExternArg(ptr uint64) (uint64, *rt.Violation) {
	return strip(ptr), nil
}

// AdoptExternRet implements rt.Runtime: foreign pointers stay untagged and
// unchecked.
func (r *Runtime) AdoptExternRet(raw uint64) uint64 { return raw }

// LibcCheck implements rt.Runtime: interceptors tag-check the whole range;
// the wide-character family has no interceptor (shared sanitizer-library
// gap, §IV.B).
func (r *Runtime) LibcCheck(fn string, ptr uint64, meta rt.PtrMeta, n int64, k rt.AccessKind) *rt.Violation {
	if n <= 0 {
		return nil
	}
	if strings.HasPrefix(fn, "wcs") || strings.HasPrefix(fn, "wmem") || strings.HasPrefix(fn, "print") {
		return nil
	}
	return r.Check(ptr, meta, 0, n, k)
}

// LoadPtrMeta implements rt.Runtime.
func (r *Runtime) LoadPtrMeta(uint64) rt.PtrMeta { return rt.PtrMeta{} }

// StorePtrMeta implements rt.Runtime.
func (r *Runtime) StorePtrMeta(uint64, rt.PtrMeta) {}

// OverheadBytes implements rt.Runtime: the touched tag shadow (1/16 of
// touched memory) — HWASan's low-memory selling point.
func (r *Runtime) OverheadBytes() int64 { return r.tags.TouchedBytes() }

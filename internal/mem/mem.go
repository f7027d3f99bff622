// Package mem implements the simulated 64-bit virtual address space that all
// sanitizers and workloads in this repository run against.
//
// The space is sparse and chunk-granular: addresses are 64-bit values, but
// only chunks that have actually been touched are materialized. This mirrors
// how a demand-paged OS backs user-space memory and gives the repository its
// resident-set-size (RSS) model: the number of materialized chunks is the
// simulated physical footprint of a program.
//
// Pointer tagging relies on the fact that user-space addresses occupy only
// the low 47 (x86-64) or 48 (ARM64) bits of a pointer. The machine's linker
// model additionally keeps every segment below 4 GiB, so a dereference of a
// still-tagged pointer (tag bits in the high word) lands far outside the
// mapped span and is reported as a fault, exactly like the non-canonical
// fault such a dereference raises on real hardware.
//
// Chunk materialization uses atomic pointers so that parallel workload
// regions (the OpenMP analogue of the SPEC CPU2017 runs) can fault chunks in
// concurrently. Racing data accesses to the same bytes remain races of the
// simulated program, as on real memory.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// ChunkBits is the log2 of the chunk size. Chunks are 64 KiB: small enough
// that the RSS model tracks footprints at sub-megabyte granularity, large
// enough that the chunk table stays small.
const ChunkBits = 16

// ChunkSize is the number of bytes in one materialized chunk.
const ChunkSize = 1 << ChunkBits

// SpanBits is the log2 of the mapped span. All segments live below 4 GiB.
const SpanBits = 32

// SpanSize is the size of the mappable span in bytes.
const SpanSize = uint64(1) << SpanBits

const chunkMask = ChunkSize - 1

// Fault describes a raw-memory access error (address outside the mapped
// span, e.g. a dereference of a pointer whose tag bits were never stripped).
// It is a machine-level fault, not a sanitizer report; the harness treats a
// fault in a "bad" test case as a crash rather than a detection.
type Fault struct {
	Addr uint64
	Size int64
	Wr   bool
	// Injected marks a fault produced by the fault-injection page-map hook
	// (the chunk backing this address could not be materialized), as opposed
	// to a wild access by the program. Classifiers use it to separate
	// injected resource pressure from genuine program crashes.
	Injected bool
}

// Error implements the error interface.
func (f *Fault) Error() string {
	op := "read"
	if f.Wr {
		op = "write"
	}
	if f.Injected {
		return fmt.Sprintf("SIGBUS: injected page-map failure on %s of %d bytes at %#x", op, f.Size, f.Addr)
	}
	return fmt.Sprintf("SIGSEGV: wild %s of %d bytes at unmapped address %#x", op, f.Size, f.Addr)
}

// Space is a sparse simulated address space over a ChunkStore.
type Space struct {
	addrBits uint // canonical pointer address width (47 or 48)
	store    ChunkStore
}

// NewSpace returns an empty space with the given canonical pointer width in
// bits. The width governs tagging semantics only; the mapped span is always
// SpanSize. Widths below SpanBits or above 57 are rejected.
func NewSpace(addrBits uint) (*Space, error) {
	if addrBits < SpanBits || addrBits > 57 {
		return nil, fmt.Errorf("mem: address width %d out of range [%d,57]", addrBits, SpanBits)
	}
	s := &Space{addrBits: addrBits}
	s.store.init(SpanSize)
	return s, nil
}

// AddrBits returns the canonical pointer width of the space.
func (s *Space) AddrBits() uint { return s.addrBits }

// Canonical reports whether addr fits in the canonical user-space pointer
// range (i.e. carries no tag bits).
func (s *Space) Canonical(addr uint64) bool { return addr < uint64(1)<<s.addrBits }

// TouchedBytes returns the simulated resident set size: the total bytes of
// materialized chunks.
func (s *Space) TouchedBytes() int64 { return s.store.TouchedBytes() }

// Reset returns the space to its freshly-constructed state: every
// materialized chunk is unmapped (and kept, zeroed, for reuse), the
// touched-page gauge drops to zero and the fault hook is removed. The caller
// must guarantee no machine is still using the space. A reset space behaves
// byte-for-byte like a new one — including the RSS model, which counts pages
// from zero again.
func (s *Space) Reset() { s.store.Reset() }

// SetFaultHook installs (or, with nil, removes) a hook consulted before each
// first-touch chunk materialization; returning true fails the mapping and
// the access gets an injected Fault. The caller must not race it with
// accesses.
func (s *Space) SetFaultHook(f func() bool) { s.store.SetFaultHook(f) }

func (s *Space) inSpan(addr uint64, size int64) bool {
	return addr < SpanSize && size >= 0 && addr+uint64(size) <= SpanSize
}

// The fast paths below serve the common access: 1, 2, 4 or 8 bytes inside
// one materialized chunk of the span, and for a store, below the chunk's
// dirty mark. Each is small enough to inline into the interpreter's load and
// store. They report false for anything else (chunk-crossing accesses,
// unmapped chunks, addresses at or past SpanSize such as tagged pointers, a
// store that must raise the mark), and the caller then goes to Load or
// Store, which own every fault and the fault hook.

// mapped returns the chunk holding [addr, addr+size) and addr's offset in
// it, or nil when the access leaves the span or crosses a chunk boundary,
// or its chunk is unmapped.
func (s *Space) mapped(addr, size uint64) (*chunk, uint64) {
	off := addr & chunkMask
	if addr >= SpanSize || off+size > ChunkSize {
		return nil, 0
	}
	return s.store.chunks[addr>>ChunkBits].Load(), off
}

// written is mapped for a store: it also returns nil unless the chunk's
// dirty mark already covers [addr, addr+size), which keeps the access
// inside the chunk too.
func (s *Space) written(addr, size uint64) (*chunk, uint64) {
	off := addr & chunkMask
	idx := addr >> ChunkBits
	if addr >= SpanSize || uint64(s.store.dirtyHi[idx].Load()) < off+size {
		return nil, 0
	}
	return s.store.chunks[idx].Load(), off
}

// FastLoad8 is Load(addr, 8) on the fast path.
func (s *Space) FastLoad8(addr uint64) (uint64, bool) {
	c, off := s.mapped(addr, 8)
	if c == nil {
		return 0, false
	}
	return binary.LittleEndian.Uint64(c[off:]), true
}

// FastLoad4 is Load(addr, 4) on the fast path.
func (s *Space) FastLoad4(addr uint64) (uint64, bool) {
	c, off := s.mapped(addr, 4)
	if c == nil {
		return 0, false
	}
	return uint64(binary.LittleEndian.Uint32(c[off:])), true
}

// FastLoad2 is Load(addr, 2) on the fast path.
func (s *Space) FastLoad2(addr uint64) (uint64, bool) {
	c, off := s.mapped(addr, 2)
	if c == nil {
		return 0, false
	}
	return uint64(binary.LittleEndian.Uint16(c[off:])), true
}

// FastLoad1 is Load(addr, 1) on the fast path.
func (s *Space) FastLoad1(addr uint64) (uint64, bool) {
	c, off := s.mapped(addr, 1)
	if c == nil {
		return 0, false
	}
	return uint64(c[off]), true
}

// FastStore8 is Store(addr, 8, val) on the fast path.
func (s *Space) FastStore8(addr, val uint64) bool {
	c, off := s.written(addr, 8)
	if c == nil {
		return false
	}
	binary.LittleEndian.PutUint64(c[off:], val)
	return true
}

// FastStore4 is Store(addr, 4, val) on the fast path.
func (s *Space) FastStore4(addr, val uint64) bool {
	c, off := s.written(addr, 4)
	if c == nil {
		return false
	}
	binary.LittleEndian.PutUint32(c[off:], uint32(val))
	return true
}

// FastStore2 is Store(addr, 2, val) on the fast path.
func (s *Space) FastStore2(addr, val uint64) bool {
	c, off := s.written(addr, 2)
	if c == nil {
		return false
	}
	binary.LittleEndian.PutUint16(c[off:], uint16(val))
	return true
}

// FastStore1 is Store(addr, 1, val) on the fast path.
func (s *Space) FastStore1(addr, val uint64) bool {
	c, off := s.written(addr, 1)
	if c == nil {
		return false
	}
	c[off] = byte(val)
	return true
}

// Load reads size bytes (1, 2, 4 or 8) at addr, little-endian, zero-extended.
func (s *Space) Load(addr uint64, size int64) (uint64, *Fault) {
	if !s.inSpan(addr, size) {
		return 0, &Fault{Addr: addr, Size: size}
	}
	off := addr & chunkMask
	if off+uint64(size) <= ChunkSize {
		c := s.store.chunk(addr >> ChunkBits)
		if c == nil {
			return 0, &Fault{Addr: addr, Size: size, Injected: true}
		}
		switch size {
		case 1:
			return uint64(c[off]), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(c[off:])), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(c[off:])), nil
		case 8:
			return binary.LittleEndian.Uint64(c[off:]), nil
		}
	}
	// Slow path: crosses a chunk boundary or odd size.
	var v uint64
	for i := int64(0); i < size; i++ {
		a := addr + uint64(i)
		c := s.store.chunk(a >> ChunkBits)
		if c == nil {
			return 0, &Fault{Addr: a, Size: size, Injected: true}
		}
		v |= uint64(c[a&chunkMask]) << (8 * uint(i))
	}
	return v, nil
}

// Store writes the low size bytes (1, 2, 4 or 8) of val at addr, little-endian.
func (s *Space) Store(addr uint64, size int64, val uint64) *Fault {
	if !s.inSpan(addr, size) {
		return &Fault{Addr: addr, Size: size, Wr: true}
	}
	off := addr & chunkMask
	if off+uint64(size) <= ChunkSize {
		c := s.store.chunk(addr >> ChunkBits)
		if c == nil {
			return &Fault{Addr: addr, Size: size, Wr: true, Injected: true}
		}
		s.store.noteDirty(addr>>ChunkBits, int64(off)+size)
		switch size {
		case 1:
			c[off] = byte(val)
			return nil
		case 2:
			binary.LittleEndian.PutUint16(c[off:], uint16(val))
			return nil
		case 4:
			binary.LittleEndian.PutUint32(c[off:], uint32(val))
			return nil
		case 8:
			binary.LittleEndian.PutUint64(c[off:], val)
			return nil
		}
	}
	for i := int64(0); i < size; i++ {
		a := addr + uint64(i)
		c := s.store.chunk(a >> ChunkBits)
		if c == nil {
			return &Fault{Addr: a, Size: size, Wr: true, Injected: true}
		}
		s.store.noteDirty(a>>ChunkBits, int64(a&chunkMask)+1)
		c[a&chunkMask] = byte(val >> (8 * uint(i)))
	}
	return nil
}

// ScanZero returns the number of width-byte elements (width 1 or 4) from
// addr up to the first zero element, or up to the first element a load
// would fault on: one past the span's end, or in a chunk the fault hook
// vetoes. It visits each chunk once, yet behaves like loading the elements
// one at a time: it materializes the same chunks in the same order, so the
// fault hook sees the same calls. strlen and wcslen scan this way.
func (s *Space) ScanZero(addr uint64, width int64) int64 {
	if width != 1 && width != 4 {
		panic(fmt.Sprintf("mem: ScanZero width %d, want 1 or 4", width))
	}
	w := uint64(width)
	var n int64
	for {
		a := addr + uint64(n)*w
		if !s.inSpan(a, width) {
			return n
		}
		off := a & chunkMask
		if off+w > ChunkSize {
			// The element straddles two chunks: Load materializes them in
			// order and reports the fault of a vetoed one.
			v, f := s.Load(a, width)
			if f != nil || v == 0 {
				return n
			}
			n++
			continue
		}
		c := s.store.chunk(a >> ChunkBits)
		if c == nil {
			return n
		}
		seg := c[off:]
		if width == 1 {
			if i := bytes.IndexByte(seg, 0); i >= 0 {
				return n + int64(i)
			}
			n += int64(len(seg))
			continue
		}
		whole := len(seg) / 4
		for i := 0; i < whole; i++ {
			if binary.LittleEndian.Uint32(seg[4*i:]) == 0 {
				return n + int64(i)
			}
		}
		n += int64(whole)
	}
}

// ReadBytes copies n bytes starting at addr into a new slice.
func (s *Space) ReadBytes(addr uint64, n int64) ([]byte, *Fault) {
	if !s.inSpan(addr, n) {
		return nil, &Fault{Addr: addr, Size: n}
	}
	out := make([]byte, n)
	if done := s.store.Read(addr, out); done < n {
		return nil, &Fault{Addr: addr + uint64(done), Size: n, Injected: true}
	}
	return out, nil
}

// WriteBytes copies b into memory starting at addr.
func (s *Space) WriteBytes(addr uint64, b []byte) *Fault {
	n := int64(len(b))
	if !s.inSpan(addr, n) {
		return &Fault{Addr: addr, Size: n, Wr: true}
	}
	if done := s.store.Write(addr, b); done < n {
		return &Fault{Addr: addr + uint64(done), Size: n, Wr: true, Injected: true}
	}
	return nil
}

// Copy moves n bytes from src to dst within the space, handling overlap like
// memmove does.
func (s *Space) Copy(dst, src uint64, n int64) *Fault {
	if n <= 0 {
		return nil
	}
	b, f := s.ReadBytes(src, n)
	if f != nil {
		return f
	}
	return s.WriteBytes(dst, b)
}

// Set fills n bytes starting at addr with byte v.
func (s *Space) Set(addr uint64, v byte, n int64) *Fault {
	if !s.inSpan(addr, n) {
		return &Fault{Addr: addr, Size: n, Wr: true}
	}
	if done := s.store.Fill(addr, n, v); done < n {
		return &Fault{Addr: addr + uint64(done), Size: n, Wr: true, Injected: true}
	}
	return nil
}

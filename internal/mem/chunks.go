package mem

import (
	"sync"
	"sync/atomic"
)

type chunk [ChunkSize]byte

// ChunkStore is a sparse byte array carved into lazily materialized
// ChunkSize-byte chunks. It backs Space and the sanitizer models' shadow
// memories (ASan's 1/8 shadow, HWASan's 1/16 tags), which real runtimes map
// with MAP_NORESERVE and pay resident memory for only where touched: the
// number of materialized chunks is the store's simulated footprint.
//
// Chunks sit behind atomic pointers so parallel workload regions can fault
// them in concurrently. Every write goes through the store (Fill, Write, or
// Space's stores), which records how far into its chunk the run wrote, so
// Reset zeroes only the bytes a run actually wrote and keeps the chunks for
// reuse.
type ChunkStore struct {
	chunks  []atomic.Pointer[chunk]
	touched atomic.Int64 // number of materialized chunks

	// dirtyHi[i] is the exclusive high-water mark of bytes written into
	// chunk i since the last Reset, maintained with a CAS-max so parallel
	// regions can write concurrently, and rounded up to a multiple of
	// dirtyGranule. Reset zeroes only c[:dirtyHi[i]] — bytes past the mark
	// were never written and are still zero. A mark from offset 0 is tight
	// enough: every segment base is a multiple of the span one chunk covers
	// in each store (64 KiB of memory, 512 KiB through ASan's shadow, 1 MiB
	// through HWASan's tags), and stacks and the heap grow upwards from
	// their bases.
	dirtyHi []atomic.Int32

	// mu guards spare and touchedIdx. spare holds zeroed chunks recycled by
	// Reset, so a pooled store re-materializes without fresh 64 KiB
	// allocations. touchedIdx records the index of every chunk materialized
	// since the last Reset, so Reset walks only the live chunks instead of
	// every table slot. Materialization is rare (first touch per chunk per
	// run), so the lock is far off the access fast path.
	mu         sync.Mutex
	spare      []*chunk
	touchedIdx []uint32

	// faultHook, when set, is consulted before each first-touch chunk
	// materialization; returning true fails the mapping. Reset clears it.
	faultHook atomic.Pointer[func() bool]
}

// NewChunkStore returns an empty store of size bytes (a multiple of
// ChunkSize).
func NewChunkStore(size uint64) *ChunkStore {
	s := &ChunkStore{}
	s.init(size)
	return s
}

func (s *ChunkStore) init(size uint64) {
	n := size >> ChunkBits
	s.chunks = make([]atomic.Pointer[chunk], n)
	s.dirtyHi = make([]atomic.Int32, n)
}

// TouchedBytes returns the total bytes of materialized chunks.
func (s *ChunkStore) TouchedBytes() int64 { return s.touched.Load() * ChunkSize }

// chunk returns chunk idx, materializing it on first touch. It returns nil
// only when the fault hook vetoes the materialization.
func (s *ChunkStore) chunk(idx uint64) *chunk {
	c := s.chunks[idx].Load()
	if c == nil {
		c = s.materialize(idx)
	}
	return c
}

// materialize installs a zeroed chunk at idx, reusing a spare one, unless
// the fault hook vetoes it. Installs are serialized by mu, so a writer that
// lost the race to another returns the winner's chunk.
func (s *ChunkStore) materialize(idx uint64) *chunk {
	if hook := s.faultHook.Load(); hook != nil && (*hook)() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.chunks[idx].Load(); c != nil {
		return c
	}
	var c *chunk
	if n := len(s.spare); n > 0 {
		c = s.spare[n-1]
		s.spare = s.spare[:n-1]
	} else {
		c = new(chunk)
	}
	s.chunks[idx].Store(c)
	s.touched.Add(1)
	s.touchedIdx = append(s.touchedIdx, uint32(idx))
	return c
}

// dirtyGranule is the step in which dirty marks rise. Rounding a mark up to
// the next granule lets a run of sequential stores raise it once per 256
// bytes instead of on almost every store, so Space's store fast path, which
// needs the mark to cover the write already, applies to them. Reset then
// clears at most dirtyGranule-1 bytes past the last write per chunk, and
// those are still zero. ChunkSize is a multiple of it, so a rounded mark
// never passes the chunk's end.
const dirtyGranule = 256

// noteDirty raises chunk idx's dirty high-water mark to at least end (an
// in-chunk byte offset, exclusive), rounded up to a dirtyGranule boundary.
// The common case — the mark already covers end — is one atomic load.
func (s *ChunkStore) noteDirty(idx uint64, end int64) {
	end = (end + dirtyGranule - 1) &^ (dirtyGranule - 1)
	h := &s.dirtyHi[idx]
	for {
		cur := h.Load()
		if int64(cur) >= end {
			return
		}
		if h.CompareAndSwap(cur, int32(end)) {
			return
		}
	}
}

// Byte returns the byte at pos, materializing its chunk the way a read of
// untouched memory faults in a zero page. A vetoed chunk reads as zero.
func (s *ChunkStore) Byte(pos uint64) byte {
	c := s.chunk(pos >> ChunkBits)
	if c == nil {
		return 0
	}
	return c[pos&chunkMask]
}

// Fill sets the n bytes starting at pos to v, resolving each chunk once. It
// returns the number of bytes written: n, or fewer when the fault hook
// vetoed a chunk, which then starts at pos plus the returned count.
func (s *ChunkStore) Fill(pos uint64, n int64, v byte) int64 {
	var done int64
	for done < n {
		p := pos + uint64(done)
		c := s.chunk(p >> ChunkBits)
		if c == nil {
			return done
		}
		off := int64(p & chunkMask)
		end := min(ChunkSize, off+n-done)
		s.noteDirty(p>>ChunkBits, end)
		seg := c[off:end]
		if v == 0 {
			clear(seg)
		} else {
			// Doubling copies: memmove, not a byte loop.
			seg[0] = v
			for k := 1; k < len(seg); k *= 2 {
				copy(seg[k:], seg[:k])
			}
		}
		done += end - off
	}
	return done
}

// Write copies b into the store starting at pos. Like Fill, it returns the
// number of bytes written.
func (s *ChunkStore) Write(pos uint64, b []byte) int64 {
	var done int64
	for done < int64(len(b)) {
		p := pos + uint64(done)
		c := s.chunk(p >> ChunkBits)
		if c == nil {
			return done
		}
		off := int64(p & chunkMask)
		w := int64(copy(c[off:], b[done:]))
		s.noteDirty(p>>ChunkBits, off+w)
		done += w
	}
	return done
}

// Read copies the bytes starting at pos into out. It returns the number of
// bytes read: len(out), or fewer when the fault hook vetoed a chunk.
func (s *ChunkStore) Read(pos uint64, out []byte) int64 {
	var done int64
	for done < int64(len(out)) {
		p := pos + uint64(done)
		c := s.chunk(p >> ChunkBits)
		if c == nil {
			return done
		}
		done += int64(copy(out[done:], c[p&chunkMask:]))
	}
	return done
}

// Reset returns the store to its freshly constructed state: every
// materialized chunk is unmapped, its written prefix zeroed and the chunk
// kept for reuse; the touched gauge drops to zero and the fault hook is
// cleared. The caller must guarantee that nothing still accesses the store.
func (s *ChunkStore) Reset() {
	s.mu.Lock()
	for _, i := range s.touchedIdx {
		c := s.chunks[i].Swap(nil)
		if hi := s.dirtyHi[i].Swap(0); hi > 0 {
			clear(c[:hi])
		}
		s.spare = append(s.spare, c)
	}
	s.touchedIdx = s.touchedIdx[:0]
	s.mu.Unlock()
	s.touched.Store(0)
	s.faultHook.Store(nil)
}

// SetFaultHook installs (or, with nil, removes) the chunk-materialization
// fault hook. The caller must not race it with accesses.
func (s *ChunkStore) SetFaultHook(f func() bool) {
	if f == nil {
		s.faultHook.Store(nil)
		return
	}
	s.faultHook.Store(&f)
}

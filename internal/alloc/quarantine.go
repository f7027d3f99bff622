package alloc

import (
	"sync"
	"sync/atomic"
)

// Quarantine is a bounded FIFO that delays chunk-address reuse: instead of
// returning a chunk to the heap's size-class free lists at once, Free parks
// it here until the held total exceeds the byte budget, then evicts the
// oldest chunks back to the heap. The shape is ASan's quarantine, but it
// sits *under* the stock-allocator contract — chunks stay registered live in
// the Heap while held, so the allocator's layout, alignment and bookkeeping
// are untouched and the RSS cost of the delay shows up in the ordinary
// live-bytes accounting. CECSan-family hardened profiles route their
// deallocations through it to close the address half of the tag-reuse
// window.
//
// Degradation is graceful by construction: a budget of 0 (or any churn
// beyond the budget) evicts immediately, which is exactly today's
// immediate-reuse behaviour; evictions and explicit flushes are counted so
// the lost coverage is observable.
type Quarantine struct {
	mu     sync.Mutex
	budget int64
	chunks []quarChunk // FIFO, oldest first
	held   int64
	// nChunks publishes len(chunks), written under mu, so OverheadBytes —
	// read by the machine at every allocation event — takes no lock.
	nChunks atomic.Int64

	evictions int64 // chunks released early because the budget overflowed
	flushes   int64 // explicit whole-quarantine releases (OOM retry path)
}

type quarChunk struct {
	base uint64
	size int64
}

// QuarantineStats is a snapshot of quarantine counters.
type QuarantineStats struct {
	Budget     int64
	HeldBytes  int64
	HeldChunks int64
	Evictions  int64
	Flushes    int64
}

// NewQuarantine returns an empty quarantine with the given byte budget.
func NewQuarantine(budget int64) *Quarantine {
	if budget < 0 {
		budget = 0
	}
	return &Quarantine{budget: budget}
}

// Free delays the release of the chunk based at addr: the chunk is appended
// to the FIFO and the oldest chunks beyond the byte budget are released to
// the heap. An address that is not a live chunk base is forwarded to
// h.Free unchanged (preserving the allocator's silent-UB contract and its
// freeErrors counter). Reports whether addr was a live chunk.
func (q *Quarantine) Free(h *Heap, addr uint64) bool {
	size, ok := h.Lookup(addr)
	if !ok {
		return h.Free(addr)
	}
	q.mu.Lock()
	q.chunks = append(q.chunks, quarChunk{base: addr, size: size})
	q.held += size
	var evict []quarChunk
	for q.held > q.budget && len(q.chunks) > 0 {
		c := q.chunks[0]
		q.chunks = q.chunks[1:]
		q.held -= c.size
		q.evictions++
		evict = append(evict, c)
	}
	q.nChunks.Store(int64(len(q.chunks)))
	q.mu.Unlock()
	for _, c := range evict {
		h.Free(c.base)
	}
	return true
}

// Flush releases every held chunk to the heap and returns how many there
// were. The runtime's allocation path calls it when the heap reports OOM, so
// quarantined memory is traded back for progress before the program dies —
// the quarantine equivalent of the table's exhaustion fallback.
func (q *Quarantine) Flush(h *Heap) int {
	q.mu.Lock()
	chunks := q.chunks
	q.chunks = nil
	q.held = 0
	q.nChunks.Store(0)
	if len(chunks) > 0 {
		q.flushes++
	}
	q.mu.Unlock()
	for _, c := range chunks {
		h.Free(c.base)
	}
	return len(chunks)
}

// Reset restores the quarantine to its freshly-constructed state without
// touching the heap: held chunks are simply forgotten, matching Heap.Reset
// (which the engine resets in the same breath) dropping all live chunks.
func (q *Quarantine) Reset() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.chunks = nil
	q.held = 0
	q.nChunks.Store(0)
	q.evictions = 0
	q.flushes = 0
}

// Stats returns a snapshot of the quarantine counters.
func (q *Quarantine) Stats() QuarantineStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QuarantineStats{
		Budget:     q.budget,
		HeldBytes:  q.held,
		HeldChunks: int64(len(q.chunks)),
		Evictions:  q.evictions,
		Flushes:    q.flushes,
	}
}

// OverheadBytes returns the quarantine's own bookkeeping footprint (one
// (base, size) pair per held chunk). The held chunk bytes themselves remain
// program memory — they are still live in the Heap — so they are charged to
// the program RSS, not the sanitizer overhead. It reads the published chunk
// count without taking the quarantine lock.
func (q *Quarantine) OverheadBytes() int64 {
	return q.nChunks.Load() * 16
}

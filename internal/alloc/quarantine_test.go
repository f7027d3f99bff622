package alloc

import "testing"

// TestQuarantineDelaysAddressReuse pins the quarantine's core property: a
// freed chunk's address is not re-handed-out while the chunk is held, even
// though the allocator's LIFO size-class lists would otherwise recycle it on
// the very next same-size allocation.
func TestQuarantineDelaysAddressReuse(t *testing.T) {
	h := NewHeap()
	a, err := h.Alloc(64)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	q := NewQuarantine(1 << 20)
	if !q.Free(h, a) {
		t.Fatal("Free returned false for a live chunk")
	}
	if _, live := h.Lookup(a); !live {
		t.Fatal("quarantined chunk left the heap's live set; its RSS must stay program-visible")
	}
	b, err := h.Alloc(64)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if b == a {
		t.Fatal("quarantined address was recycled immediately")
	}
	// Flushing trades the delay back: the chunk is genuinely freed and the
	// LIFO list hands its address out again.
	if n := q.Flush(h); n != 1 {
		t.Fatalf("Flush released %d chunks, want 1", n)
	}
	if _, live := h.Lookup(a); live {
		t.Fatal("chunk still live after Flush")
	}
	c, err := h.Alloc(64)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if c != a {
		t.Fatalf("post-flush Alloc = %#x, want the flushed address %#x", c, a)
	}
	if got := q.Stats().Flushes; got != 1 {
		t.Errorf("Flushes = %d, want 1", got)
	}
}

// TestQuarantineEviction pins the bounded-budget degradation: once held
// bytes exceed the budget the oldest chunks are released (counted), so the
// RSS cost is capped and coverage degrades FIFO-gracefully rather than
// failing.
func TestQuarantineEviction(t *testing.T) {
	h := NewHeap()
	var addrs [3]uint64
	for i := range addrs {
		a, err := h.Alloc(64)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		addrs[i] = a
	}
	q := NewQuarantine(128)
	for _, a := range addrs {
		q.Free(h, a)
	}
	s := q.Stats()
	if s.Evictions != 1 || s.HeldChunks != 2 || s.HeldBytes != 128 {
		t.Fatalf("Stats = %+v, want 1 eviction with 2 chunks / 128 bytes held", s)
	}
	if got := q.OverheadBytes(); got != 2*16 {
		t.Fatalf("OverheadBytes = %d, want one (base, size) pair per held chunk = 32", got)
	}
	// The evicted (oldest) address is reusable; the held ones are not.
	b, err := h.Alloc(64)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if b != addrs[0] {
		t.Fatalf("post-eviction Alloc = %#x, want the evicted address %#x", b, addrs[0])
	}
}

// TestQuarantineForeignFree pins the silent-UB contract: an address that is
// not a live chunk base bypasses the quarantine and lands in Heap.Free's
// ordinary error accounting.
func TestQuarantineForeignFree(t *testing.T) {
	h := NewHeap()
	q := NewQuarantine(1 << 20)
	if q.Free(h, 0xdead0) {
		t.Error("Free of a non-chunk address reported true")
	}
	if got := q.Stats().HeldChunks; got != 0 {
		t.Errorf("non-chunk free was quarantined: %d chunks held", got)
	}
}

// TestQuarantineReset pins the pooling contract: Reset forgets held chunks
// and zeroes every counter without touching the heap (the engine resets the
// heap in the same breath).
func TestQuarantineReset(t *testing.T) {
	h := NewHeap()
	a, err := h.Alloc(64)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	q := NewQuarantine(16)
	q.Free(h, a) // evicts immediately (64 > 16): counter churn
	b, _ := h.Alloc(128)
	q.Free(h, b)
	q.Flush(h)
	q.Reset()
	if got, want := q.Stats(), (QuarantineStats{Budget: 16}); got != want {
		t.Errorf("Stats after Reset = %+v, want %+v", got, want)
	}
	if got := q.OverheadBytes(); got != 0 {
		t.Errorf("OverheadBytes after Reset = %d, want 0", got)
	}
}

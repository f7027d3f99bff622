// Package core implements the CECSan runtime: the paper's primary
// contribution. It combines the compact, reusable metadata table (§II.B,
// Figure 2), pointer tagging (via internal/tagptr), the optimized combined
// spatial+temporal dereference check (Algorithm 1), the deallocation check
// (Algorithm 2), sub-object bounds narrowing (§II.D), protection for stack
// and global objects (§II.C.3), and compatibility wrappers for external
// uninstrumented code (§II.E).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cecsan/internal/tagptr"
)

// Invalid is the "very high value" (§II.B.4) written into a freed entry's
// low bound. Any dereference through a dangling pointer then computes a
// negative low-bound difference, failing Algorithm 1's combined check. It is
// far above every mappable address.
const Invalid uint64 = 1 << 62

// reservedHigh is the upper bound of the reserved entry 0, "initialized as
// very high address" (§III), so that untagged/foreign pointers pass every
// check.
const reservedHigh uint64 = 1 << 62

// slotsPerEntry is the entry stride: (low bound, high bound, nextID), 24
// bytes per entry (§III).
const slotsPerEntry = 3

// EntryBytes is the metadata footprint of one table entry.
const EntryBytes = 8 * slotsPerEntry

// Table is the compact metadata table: a linear array of
// (low, high, nextID) entries indexed by a pointer's tag. Entry 0 is
// reserved for pointers of unknown provenance (§II.E). A free list is
// encoded inside the entries themselves via nextID offsets, with the global
// metadata index GMI as its head (§II.B.2, Figure 2), so freed entries are
// reused as early as possible.
//
// Two opt-in temporal-hardening modes close the tag-index reuse window that
// "as early as possible" opens (the uaf_quarantine_flush blind spot):
//
//   - Generation stamping (genBits > 0) carves the top genBits off the tag
//     field, so a tag is gen<<idxBits|idx and the table shrinks to 2^idxBits
//     entries. The entry's current generation lives in the spare high bits of
//     its high-bound slot (bounds are < 2^AddrBits, so bits [AddrBits,
//     AddrBits+genBits) are genuinely free — the same unused-bit exploitation
//     the tag itself relies on). Free bumps the generation, so a stale tag
//     fails Probe's generation comparison even after the index is rebuilt.
//     The counter wraps at 2^genBits, falling back to stamp-free behaviour
//     for that incarnation (counted in GenWraps).
//
//   - Delayed reuse (delay > 0) holds each freed index in a FIFO until delay
//     more are freed, only then threading it onto the GMI free structure.
//     Exhaustion drains the FIFO oldest-first instead of degrading the
//     allocation (counted in IndexSpills).
//
// With both off (NewTable) the byte-level behaviour is identical to the
// paper's free structure.
//
// Writes (allocate/free) are serialized by a mutex, the paper's thread-safe
// GMI arrangement (§III). Checks read entries lock-free via atomic loads,
// which on x86-64 compile to the same plain loads the real runtime issues.
type Table struct {
	arch tagptr.Arch

	// Temporal-hardening configuration: structural, survives Reset.
	genBits  uint   // generation bits carved from the top of the tag (0 = off)
	idxBits  uint   // index bits remaining below the generation field
	idxMask  uint64 // (1 << idxBits) - 1
	genMask  uint64 // (1 << genBits) - 1
	genShift uint   // entry-side generation position in the high slot (= AddrBits)
	delay    int    // delayed-reuse FIFO depth (0 = immediate reuse)

	mu          sync.Mutex
	gmi         uint64 // current metadata table index (free-structure head)
	reserveLast bool   // final index reserved as the CHAINED tag
	clamp       uint64 // fault-injected capacity clamp (0 = none); cleared by Reset

	slots []atomic.Uint64 // 3 * 2^idxBits: low, high, nextID(two's complement)
	sub   []bool          // entry holds sub-object metadata (report classification only)

	fifo []uint64 // freed indices awaiting re-threading, oldest first

	live        int64
	allocs      int64
	exhausted   int64 // allocations that fell back to the reserved entry
	genWraps    int64 // generation counters that wrapped to 0 (coverage lost)
	indexSpills int64 // delayed indices re-threaded early under exhaustion

	// highWater is the largest index ever handed out + 1 (lazy-page RSS
	// model). Written under mu; published atomically so TouchedBytes — read
	// by the machine at every allocation event — takes no lock.
	highWater atomic.Uint64
}

// TableStats is a snapshot of table counters.
type TableStats struct {
	Live      int64
	HighWater uint64
	Allocs    int64
	Exhausted int64
	Capacity  uint64
	// Temporal-hardening degradation counters (0 with hardening off).
	GenWraps    int64
	IndexSpills int64
	Delayed     int64 // indices currently held back by the reuse FIFO
}

// NewTable builds the table for an architecture: 2^TagBits entries
// (2^17 on x86-64, the prototype configuration). The constructor initializes
// every field to zero, sets the reserved entry's high bound to a very high
// address, and starts GMI at 1 (§III).
func NewTable(arch tagptr.Arch) (*Table, error) {
	return NewHardenedTable(arch, 0, 0)
}

// NewHardenedTable builds a table with the temporal-hardening modes
// configured: genBits generation bits carved from the tag field and a
// delayed-reuse FIFO of depth delay. (0, 0) is exactly NewTable.
func NewHardenedTable(arch tagptr.Arch, genBits uint, delay int) (*Table, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	if genBits > 8 || (genBits > 0 && genBits+2 > arch.TagBits) {
		return nil, fmt.Errorf("core: generation bits %d out of range for %d tag bits", genBits, arch.TagBits)
	}
	if delay < 0 {
		return nil, fmt.Errorf("core: negative index delay %d", delay)
	}
	idxBits := arch.TagBits - genBits
	n := uint64(1) << idxBits
	t := &Table{
		arch:     arch,
		genBits:  genBits,
		idxBits:  idxBits,
		idxMask:  n - 1,
		genMask:  (uint64(1) << genBits) - 1,
		genShift: arch.AddrBits,
		delay:    delay,
		gmi:      1,
		slots:    make([]atomic.Uint64, n*slotsPerEntry),
		sub:      make([]bool, n),
	}
	// Reserved entry 0: minimum base address, maximum upper bound (§II.E).
	// reservedHigh sits at bit 62, above any generation field (AddrBits +
	// genBits <= 56), so entry 0 decodes as generation 0 and keeps matching
	// every untagged pointer.
	t.slots[1].Store(reservedHigh)
	t.highWater.Store(1)
	return t, nil
}

// Capacity returns the number of entries (including the reserved one). With
// generation stamping on, index bits surrendered to the generation field
// halve the capacity per bit.
func (t *Table) Capacity() uint64 { return uint64(1) << t.idxBits }

// GenerationBits returns the configured generation-field width (0 = off).
func (t *Table) GenerationBits() uint { return t.genBits }

// IndexDelay returns the delayed-reuse FIFO depth (0 = immediate reuse).
func (t *Table) IndexDelay() int { return t.delay }

// Probe returns the decoded (low, high) bounds of the entry a tag refers to
// plus the XOR of the tag's generation stamp with the entry's current
// generation, lock-free. genXor is 0 when the generations match or stamping
// is off; any non-zero value means the pointer predates the entry's current
// incarnation, so negating it sets the sign bit and folds into Algorithm 1's
// combined test as a third OR term.
func (t *Table) Probe(tag uint64) (low, high, genXor uint64) {
	base := (tag & t.idxMask) * slotsPerEntry
	low = t.slots[base].Load()
	high = t.slots[base+1].Load()
	if t.genBits == 0 {
		return low, high, 0
	}
	genXor = (high>>t.genShift ^ tag>>t.idxBits) & t.genMask
	high &^= t.genMask << t.genShift
	return low, high, genXor
}

// Load returns the decoded (low, high) bounds of the entry tag refers to,
// lock-free (Probe without the generation comparison).
func (t *Table) Load(tag uint64) (low, high uint64) {
	low, high, _ = t.Probe(tag)
	return low, high
}

// IsSub reports whether the entry tag refers to currently holds sub-object
// metadata. It is consulted only on the check's failure (reporting) path.
func (t *Table) IsSub(tag uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sub[tag&t.idxMask]
}

// Allocate creates a metadata entry for an object spanning [low, high) and
// returns its tag. Per Figure 2, the entry at the current GMI is used and
// GMI advances by the entry's stored nextID + 1: 0 for virgin entries
// (advance to the next virgin slot) and the encoded free-list offset for
// recycled ones (jump back to the previous head). With generation stamping
// on, the returned tag carries the entry's current generation in its top
// genBits; otherwise the tag is the plain index.
//
// When the table is exhausted (2^idxBits simultaneously live objects, the
// §V limitation), Allocate first drains the delayed-reuse FIFO — an early
// re-threading that shrinks the reuse window instead of dropping this
// object's protection, counted in IndexSpills — and only then reports
// ok=false; the caller falls back to the reserved entry, trading protection
// of this one object for progress.
func (t *Table) Allocate(low, high uint64, sub bool) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	limit := t.Capacity()
	if t.reserveLast {
		limit--
	}
	if t.clamp != 0 && t.clamp+1 < limit {
		// Injected capacity clamp: at most t.clamp allocatable entries
		// (indices 1..clamp), so exhaustion is reachable in tests without
		// 2^17 live objects.
		limit = t.clamp + 1
	}
	for t.gmi >= limit && len(t.fifo) > 0 {
		t.thread(t.fifo[0])
		t.fifo = t.fifo[1:]
		t.indexSpills++
	}
	k := t.gmi
	if k >= limit {
		t.exhausted++
		return 0, false
	}
	base := k * slotsPerEntry
	next := int64(t.slots[base+2].Load())
	var gen uint64
	if t.genBits != 0 {
		// A recycled entry's generation was left in the high slot by Free;
		// virgin entries start at generation 0.
		gen = t.slots[base+1].Load() >> t.genShift & t.genMask
		high |= gen << t.genShift
	}
	t.slots[base].Store(low)
	t.slots[base+1].Store(high)
	t.slots[base+2].Store(0)
	t.sub[k] = sub
	t.gmi = uint64(int64(k) + next + 1)
	t.live++
	t.allocs++
	if k+1 > t.highWater.Load() {
		t.highWater.Store(k + 1)
	}
	return gen<<t.idxBits | k, true
}

// thread links freed index k onto the encoded free structure (§II.B.4,
// Figure 2): nextID := GMI - k - 1, GMI := k. Callers hold t.mu.
func (t *Table) thread(k uint64) {
	t.slots[k*slotsPerEntry+2].Store(uint64(int64(t.gmi) - int64(k) - 1))
	t.gmi = k
}

// Free invalidates the entry the tag refers to: low := INVALID, high := 0
// (plus, with stamping on, the bumped generation in the high slot's spare
// bits, so every stale tag of the previous incarnation now fails Probe).
// With immediate reuse the index is threaded onto the free list at once and
// the next Allocate reuses it; with delayed reuse it enters the FIFO and is
// threaded only after `delay` more frees.
func (t *Table) Free(tag uint64) {
	k := tag & t.idxMask
	if k == 0 || k >= t.Capacity() {
		return // the reserved entry is never recycled
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := k * slotsPerEntry
	t.slots[base].Store(Invalid)
	if t.genBits == 0 {
		t.slots[base+1].Store(0)
	} else {
		gen := t.slots[base+1].Load()>>t.genShift&t.genMask + 1
		if gen > t.genMask {
			// Generation wrap: this incarnation is indistinguishable from the
			// entry's first, so stale tags stamped 0 would validate again —
			// the graceful fallback to stamp-free coverage, counted.
			gen = 0
			t.genWraps++
		}
		t.slots[base+1].Store(gen << t.genShift)
	}
	if t.delay > 0 {
		t.fifo = append(t.fifo, k)
		if len(t.fifo) > t.delay {
			t.thread(t.fifo[0])
			t.fifo = t.fifo[1:]
		}
	} else {
		t.thread(k)
	}
	t.live--
}

// Reset restores the table to its freshly-constructed state (the real
// runtime would munmap and lazily re-fault the region; here we zero it).
// Only entries below the high-water mark were ever written, so the cost is
// proportional to the table's peak occupancy, not its 2^TagBits capacity —
// for short programs this is a few cache lines instead of a 3 MiB
// allocation. The reserveLast flag is structural configuration, not run
// state, and survives the reset.
func (t *Table) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	hw := t.highWater.Load()
	for i := range t.slots[:hw*slotsPerEntry] {
		t.slots[i].Store(0)
	}
	for i := range t.sub[:hw] {
		t.sub[i] = false
	}
	t.slots[1].Store(reservedHigh)
	t.gmi = 1
	t.highWater.Store(1)
	t.live = 0
	t.allocs = 0
	t.exhausted = 0
	t.clamp = 0
	t.fifo = nil
	t.genWraps = 0
	t.indexSpills = 0
}

// Clamp caps the table at n allocatable entries (excluding the reserved
// entry 0); 0 removes the cap. It is run state, not configuration: Reset
// clears it, so a pooled table never carries a clamp into the next case.
func (t *Table) Clamp(n uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clamp = n
}

// ReserveLast excludes the table's final entry from allocation, reserving
// its index as the CHAINED tag of the §V overflow-chaining extension.
func (t *Table) ReserveLast() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reserveLast = true
}

// Stats returns a snapshot of the table counters.
func (t *Table) Stats() TableStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TableStats{
		Live:        t.live,
		HighWater:   t.highWater.Load(),
		Allocs:      t.allocs,
		Exhausted:   t.exhausted,
		Capacity:    t.Capacity(),
		GenWraps:    t.genWraps,
		IndexSpills: t.indexSpills,
		Delayed:     int64(len(t.fifo)),
	}
}

// TouchedBytes returns the table's resident footprint under the lazy-mmap
// model: only pages up to the high-water entry have ever been written. It
// reads the published high-water mark without taking the table lock.
func (t *Table) TouchedBytes() int64 {
	const page = 4096
	b := int64(t.highWater.Load()) * EntryBytes
	return (b + page - 1) / page * page
}

package core

import (
	"sync"
	"testing"
	"testing/quick"

	"cecsan/internal/tagptr"
)

func newTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable(tagptr.X8664)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return tbl
}

func TestNewTableReservedEntry(t *testing.T) {
	tbl := newTable(t)
	low, high := tbl.Load(0)
	if low != 0 {
		t.Errorf("reserved entry low = %#x, want 0 (minimum base)", low)
	}
	if high != reservedHigh {
		t.Errorf("reserved entry high = %#x, want %#x (very high address)", high, reservedHigh)
	}
	if tbl.Capacity() != 1<<17 {
		t.Errorf("capacity = %d, want 2^17 (prototype configuration)", tbl.Capacity())
	}
}

func TestNewTableRejectsBadArch(t *testing.T) {
	if _, err := NewTable(tagptr.Arch{Name: "bad", AddrBits: 47, TagBits: 16}); err == nil {
		t.Fatal("NewTable accepted an inconsistent arch")
	}
}

func TestAllocateSequentialIndices(t *testing.T) {
	tbl := newTable(t)
	for want := uint64(1); want <= 5; want++ {
		idx, ok := tbl.Allocate(0x1000*want, 0x1000*want+64, false)
		if !ok || idx != want {
			t.Fatalf("Allocate #%d = (%d,%v), want (%d,true): GMI starts at 1 and increments", want, idx, ok, want)
		}
		low, high := tbl.Load(idx)
		if low != 0x1000*want || high != 0x1000*want+64 {
			t.Fatalf("entry %d bounds = [%#x,%#x)", idx, low, high)
		}
	}
}

func TestFreeInvalidatesEntry(t *testing.T) {
	tbl := newTable(t)
	idx, _ := tbl.Allocate(0x1000, 0x1040, false)
	tbl.Free(idx)
	low, high := tbl.Load(idx)
	if low != Invalid {
		t.Errorf("freed entry low = %#x, want INVALID %#x (§II.B.4)", low, Invalid)
	}
	if high != 0 {
		t.Errorf("freed entry high = %#x, want 0", high)
	}
}

// TestFreeListLIFOReuse reproduces Figure 2's encoded free list: freed
// entries are reused immediately (LIFO), and GMI is restored after reuse so
// no table space leaks.
func TestFreeListLIFOReuse(t *testing.T) {
	tbl := newTable(t)
	a, _ := tbl.Allocate(0x1000, 0x1010, false) // 1
	b, _ := tbl.Allocate(0x2000, 0x2010, false) // 2
	c, _ := tbl.Allocate(0x3000, 0x3010, false) // 3
	_ = a

	tbl.Free(b)
	tbl.Free(c)

	// LIFO: c is the free-list head, then b, then the virgin region at 4.
	r1, _ := tbl.Allocate(0x4000, 0x4010, false)
	if r1 != c {
		t.Fatalf("first reuse = %d, want %d (LIFO head)", r1, c)
	}
	r2, _ := tbl.Allocate(0x5000, 0x5010, false)
	if r2 != b {
		t.Fatalf("second reuse = %d, want %d", r2, b)
	}
	// Free list drained: next allocation must resume at the virgin index 4.
	r3, _ := tbl.Allocate(0x6000, 0x6010, false)
	if r3 != 4 {
		t.Fatalf("post-drain allocation = %d, want 4 (GMI restored per Figure 2)", r3)
	}
}

// TestFreeListOutOfOrder exercises the paper's offset encoding with negative
// nextID offsets (freeing an index above the current GMI).
func TestFreeListOutOfOrder(t *testing.T) {
	tbl := newTable(t)
	tbl.Allocate(0x1000, 0x1010, false) // 1
	b, _ := tbl.Allocate(0x2000, 0x2010, false)
	c, _ := tbl.Allocate(0x3000, 0x3010, false)
	tbl.Free(b) // GMI=2, b.next = 4-2-1 = 1
	tbl.Free(c) // GMI=3, c.next = 2-3-1 = -2 (negative offset)

	if r, _ := tbl.Allocate(0x4000, 0x4010, false); r != c {
		t.Fatalf("reuse = %d, want %d", r, c)
	}
	if r, _ := tbl.Allocate(0x5000, 0x5010, false); r != b {
		t.Fatalf("reuse = %d, want %d", r, b)
	}
	if r, _ := tbl.Allocate(0x6000, 0x6010, false); r != 4 {
		t.Fatalf("virgin allocation = %d, want 4", r)
	}
}

// TestFreeListProperty: under any interleaving of allocs and frees, (1) no
// two live entries share an index, (2) a drained free list resumes at the
// high-water virgin index, (3) live count is exact.
func TestFreeListProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		tbl, err := NewTable(tagptr.X8664)
		if err != nil {
			return false
		}
		live := make(map[uint64]bool)
		var liveCount int64
		for i, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				idx, ok := tbl.Allocate(uint64(i)*64+0x1000, uint64(i)*64+0x1040, false)
				if !ok {
					return false
				}
				if live[idx] {
					return false // index collision among live entries
				}
				live[idx] = true
				liveCount++
			} else {
				for idx := range live {
					tbl.Free(idx)
					delete(live, idx)
					liveCount--
					break
				}
			}
		}
		return tbl.Stats().Live == liveCount
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTableReuseKeepsHighWaterLow checks the free list's purpose (§V): heavy
// churn with few simultaneous live objects must not consume table space.
func TestTableReuseKeepsHighWaterLow(t *testing.T) {
	tbl := newTable(t)
	for i := 0; i < 100000; i++ {
		idx, ok := tbl.Allocate(0x1000, 0x1040, false)
		if !ok {
			t.Fatalf("iteration %d: table exhausted despite churn reuse", i)
		}
		tbl.Free(idx)
	}
	if hw := tbl.Stats().HighWater; hw > 2 {
		t.Fatalf("high water = %d after 100k alloc/free churn, want <= 2", hw)
	}
}

func TestTableExhaustion(t *testing.T) {
	tbl := newTable(t)
	n := tbl.Capacity()
	for i := uint64(1); i < n; i++ {
		if _, ok := tbl.Allocate(0x1000, 0x1040, false); !ok {
			t.Fatalf("premature exhaustion at %d of %d", i, n)
		}
	}
	// All 2^17-1 usable entries live: the next allocation must fall back.
	if _, ok := tbl.Allocate(0x1000, 0x1040, false); ok {
		t.Fatal("Allocate succeeded beyond capacity")
	}
	if got := tbl.Stats().Exhausted; got != 1 {
		t.Fatalf("Exhausted = %d, want 1", got)
	}
	// Freeing one entry must make the table usable again.
	tbl.Free(5)
	idx, ok := tbl.Allocate(0x9000, 0x9040, false)
	if !ok || idx != 5 {
		t.Fatalf("post-free Allocate = (%d,%v), want (5,true)", idx, ok)
	}
}

func TestReservedEntryNeverRecycled(t *testing.T) {
	tbl := newTable(t)
	tbl.Free(0) // must be a no-op
	low, high := tbl.Load(0)
	if low != 0 || high != reservedHigh {
		t.Fatal("Free(0) corrupted the reserved entry")
	}
	if idx, _ := tbl.Allocate(0x1000, 0x1040, false); idx != 1 {
		t.Fatalf("allocation after Free(0) = %d, want 1", idx)
	}
}

func TestSubFlagTracking(t *testing.T) {
	tbl := newTable(t)
	obj, _ := tbl.Allocate(0x1000, 0x1100, false)
	sub, _ := tbl.Allocate(0x1000, 0x1010, true)
	if tbl.IsSub(obj) {
		t.Error("object entry misflagged as sub-object")
	}
	if !tbl.IsSub(sub) {
		t.Error("sub-object entry not flagged")
	}
	// Recycling a sub entry as an object entry must clear the flag.
	tbl.Free(sub)
	again, _ := tbl.Allocate(0x2000, 0x2100, false)
	if again != sub {
		t.Fatalf("expected reuse of %d, got %d", sub, again)
	}
	if tbl.IsSub(again) {
		t.Error("recycled entry kept stale sub flag")
	}
}

func TestTouchedBytesLazyPages(t *testing.T) {
	tbl := newTable(t)
	base := tbl.TouchedBytes()
	if base != 4096 {
		t.Fatalf("fresh table TouchedBytes = %d, want one page", base)
	}
	// ~200 entries * 24B = ~4.8KB -> 2 pages.
	for i := 0; i < 200; i++ {
		tbl.Allocate(0x1000, 0x1040, false)
	}
	if got := tbl.TouchedBytes(); got < 8192 || got > 3*4096 {
		t.Fatalf("TouchedBytes = %d, want ~2 pages", got)
	}
}

func TestTableConcurrentChurn(t *testing.T) {
	tbl := newTable(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []uint64
			for i := 0; i < 2000; i++ {
				idx, ok := tbl.Allocate(uint64(w)<<20|uint64(i), uint64(w)<<20|uint64(i+16), false)
				if !ok {
					t.Error("unexpected exhaustion")
					return
				}
				mine = append(mine, idx)
				if len(mine) > 8 {
					tbl.Free(mine[0])
					mine = mine[1:]
				}
				// Concurrent lock-free reads against writer traffic.
				tbl.Load(idx)
				if tbl.TouchedBytes() <= 0 {
					t.Error("TouchedBytes not positive")
					return
				}
			}
			for _, idx := range mine {
				tbl.Free(idx)
			}
		}(w)
	}
	wg.Wait()
	if got := tbl.Stats().Live; got != 0 {
		t.Fatalf("Live = %d after balanced churn, want 0", got)
	}
}

// TestResetRestoresFreshState drives a table through an allocate/free churn,
// resets it, and asserts it is indistinguishable from a new table: same
// reserved entry, same allocation index sequence, same counters, same
// touched-page footprint. This is the invariant the execution engine's
// runtime pooling depends on.
func TestResetRestoresFreshState(t *testing.T) {
	dirty := newTable(t)
	for i := uint64(1); i <= 40; i++ {
		if _, ok := dirty.Allocate(0x1000*i, 0x1000*i+64, i%3 == 0); !ok {
			t.Fatalf("Allocate #%d failed", i)
		}
	}
	for _, k := range []uint64{3, 7, 7, 12, 40, 1} {
		dirty.Free(k)
	}
	dirty.Reset()

	fresh := newTable(t)
	if got, want := dirty.Stats(), fresh.Stats(); got != want {
		t.Errorf("Stats after Reset = %+v, want %+v", got, want)
	}
	if got, want := dirty.TouchedBytes(), fresh.TouchedBytes(); got != want {
		t.Errorf("TouchedBytes after Reset = %d, want %d", got, want)
	}
	low, high := dirty.Load(0)
	if low != 0 || high != reservedHigh {
		t.Errorf("reserved entry after Reset = [%#x,%#x), want [0,%#x)", low, high, reservedHigh)
	}
	// Replaying the same allocation sequence on both tables must produce
	// identical indices, bounds and sub flags.
	for i := uint64(1); i <= 20; i++ {
		gi, gok := dirty.Allocate(0x2000*i, 0x2000*i+32, i%2 == 0)
		wi, wok := fresh.Allocate(0x2000*i, 0x2000*i+32, i%2 == 0)
		if gi != wi || gok != wok {
			t.Fatalf("replay Allocate #%d: reset table gave (%d,%v), fresh gave (%d,%v)", i, gi, gok, wi, wok)
		}
		glow, ghigh := dirty.Load(gi)
		wlow, whigh := fresh.Load(wi)
		if glow != wlow || ghigh != whigh {
			t.Fatalf("replay entry %d bounds differ: [%#x,%#x) vs [%#x,%#x)", gi, glow, ghigh, wlow, whigh)
		}
		if dirty.IsSub(gi) != fresh.IsSub(wi) {
			t.Fatalf("replay entry %d sub flag differs", gi)
		}
	}
	if got, want := dirty.Stats(), fresh.Stats(); got != want {
		t.Errorf("Stats after replay = %+v, want %+v", got, want)
	}
}

// TestResetPreservesReserveLast checks the CHAINED-tag reservation, which is
// construction-time configuration, survives a Reset.
func TestResetPreservesReserveLast(t *testing.T) {
	tbl := newTable(t)
	tbl.ReserveLast()
	tbl.Reset()
	limit := tbl.Capacity() - 1 // last index reserved
	var last uint64
	for {
		idx, ok := tbl.Allocate(0x1000, 0x1040, false)
		if !ok {
			break
		}
		last = idx
	}
	if last != limit-1 {
		t.Fatalf("last allocated index = %d, want %d (final entry stays reserved after Reset)", last, limit-1)
	}
}

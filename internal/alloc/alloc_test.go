package alloc

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"cecsan/internal/splitmix"
)

func TestSegmentOf(t *testing.T) {
	tests := []struct {
		name string
		addr uint64
		want Segment
	}{
		{name: "below everything", addr: 0x1000, want: SegNone},
		{name: "globals start", addr: GlobalsBase, want: SegGlobals},
		{name: "globals interior", addr: GlobalsBase + 100, want: SegGlobals},
		{name: "stack start", addr: StackBase, want: SegStack},
		{name: "heap start", addr: HeapBase, want: SegHeap},
		{name: "heap end is exclusive", addr: HeapLimit, want: SegNone},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SegmentOf(tt.addr); got != tt.want {
				t.Fatalf("SegmentOf(%#x) = %v, want %v", tt.addr, got, tt.want)
			}
		})
	}
}

func TestSegmentString(t *testing.T) {
	for seg, want := range map[Segment]string{
		SegGlobals: "global", SegStack: "stack", SegHeap: "heap", SegNone: "unmapped",
	} {
		if got := seg.String(); got != want {
			t.Errorf("Segment(%d).String() = %q, want %q", seg, got, want)
		}
	}
}

func TestHeapAllocAlignmentAndDisjointness(t *testing.T) {
	h := NewHeap()
	seen := make(map[uint64]int64)
	for _, size := range []int64{1, 15, 16, 17, 100, 4096, 1 << 20} {
		addr, err := h.Alloc(size)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", size, err)
		}
		if addr%Align != 0 {
			t.Errorf("Alloc(%d) = %#x, not %d-byte aligned", size, addr, Align)
		}
		if SegmentOf(addr) != SegHeap {
			t.Errorf("Alloc(%d) = %#x, outside heap segment", size, addr)
		}
		for base, sz := range seen {
			if addr < base+uint64(sz) && base < addr+uint64(size) {
				t.Errorf("chunk [%#x,+%d) overlaps live chunk [%#x,+%d)", addr, size, base, sz)
			}
		}
		seen[addr] = size
	}
}

func TestHeapFreeListReuseIsLIFO(t *testing.T) {
	h := NewHeap()
	a, _ := h.Alloc(64)
	b, _ := h.Alloc(64)
	h.Free(a)
	h.Free(b)
	// glibc-style immediate LIFO reuse: next same-size alloc returns b.
	c, _ := h.Alloc(64)
	if c != b {
		t.Errorf("expected LIFO reuse of %#x, got %#x", b, c)
	}
	d, _ := h.Alloc(64)
	if d != a {
		t.Errorf("expected second reuse of %#x, got %#x", a, d)
	}
}

func TestHeapFreeUndefinedBehaviourIsSilent(t *testing.T) {
	h := NewHeap()
	a, _ := h.Alloc(64)
	if ok := h.Free(a + 16); ok {
		t.Error("free of interior pointer reported success")
	}
	if ok := h.Free(a); !ok {
		t.Error("free of valid base failed")
	}
	if ok := h.Free(a); ok {
		t.Error("double free reported success")
	}
	if got := h.Stats().FreeErrors; got != 2 {
		t.Errorf("FreeErrors = %d, want 2", got)
	}
}

func TestHeapLookup(t *testing.T) {
	h := NewHeap()
	a, _ := h.Alloc(100)
	size, ok := h.Lookup(a)
	if !ok || size != 112 { // 100 rounded to 112
		t.Errorf("Lookup(%#x) = (%d,%v), want (112,true)", a, size, ok)
	}
	if _, ok := h.Lookup(a + 8); ok {
		t.Error("Lookup of interior pointer succeeded; want base addresses only")
	}
	h.Free(a)
	if _, ok := h.Lookup(a); ok {
		t.Error("Lookup of freed chunk succeeded")
	}
}

func TestHeapStats(t *testing.T) {
	h := NewHeap()
	a, _ := h.Alloc(32)
	b, _ := h.Alloc(32)
	s := h.Stats()
	if s.LiveCount != 2 || s.LiveBytes != 64 || s.AllocCount != 2 {
		t.Fatalf("stats after 2 allocs: %+v", s)
	}
	h.Free(a)
	h.Free(b)
	s = h.Stats()
	if s.LiveCount != 0 || s.LiveBytes != 0 {
		t.Fatalf("stats after frees: %+v", s)
	}
	if s.PeakLive != 64 {
		t.Fatalf("PeakLive = %d, want 64", s.PeakLive)
	}
}

func TestHeapConcurrentAllocFree(t *testing.T) {
	h := NewHeap()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []uint64
			for i := 0; i < 500; i++ {
				a, err := h.Alloc(int64(16 + i%256))
				if err != nil {
					t.Errorf("Alloc: %v", err)
					return
				}
				mine = append(mine, a)
				if len(mine) > 10 {
					h.Free(mine[0])
					mine = mine[1:]
				}
			}
			for _, a := range mine {
				h.Free(a)
			}
		}()
	}
	wg.Wait()
	if s := h.Stats(); s.LiveCount != 0 || s.FreeErrors != 0 {
		t.Fatalf("after concurrent churn: %+v", s)
	}
}

// TestHeapLiveChunksNeverOverlap property-checks the central allocator
// invariant under a random alloc/free interleaving.
func TestHeapLiveChunksNeverOverlap(t *testing.T) {
	prop := func(ops []uint16) bool {
		h := NewHeap()
		type chunk struct {
			base uint64
			size int64
		}
		var livest []chunk
		for _, op := range ops {
			if op%3 != 0 || len(livest) == 0 {
				size := int64(op%512) + 1
				a, err := h.Alloc(size)
				if err != nil {
					return false
				}
				for _, c := range livest {
					if a < c.base+uint64(roundUp(c.size)) && c.base < a+uint64(roundUp(size)) {
						return false
					}
				}
				livest = append(livest, chunk{a, size})
			} else {
				i := int(op) % len(livest)
				h.Free(livest[i].base)
				livest = append(livest[:i], livest[i+1:]...)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStackFrames(t *testing.T) {
	s, err := NewStack(0)
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	outer := s.Mark()
	a, err := s.Alloc(100)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if a%Align != 0 || SegmentOf(a) != SegStack {
		t.Fatalf("stack alloc %#x misaligned or out of segment", a)
	}
	inner := s.Mark()
	b, _ := s.Alloc(64)
	if b < a+100 {
		t.Fatalf("inner alloca %#x overlaps outer %#x", b, a)
	}
	s.Release(inner)
	c, _ := s.Alloc(64)
	if c != b {
		t.Fatalf("frame release did not reuse stack space: got %#x want %#x", c, b)
	}
	s.Release(outer)
	if got := s.Mark(); got != outer {
		t.Fatalf("Mark after full release = %#x, want %#x", got, outer)
	}
	if s.PeakBytes() <= 0 {
		t.Fatal("PeakBytes not tracked")
	}
}

func TestStackOverflow(t *testing.T) {
	s, err := NewStack(0)
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	if _, err := s.Alloc(int64(ThreadStackSize) + 1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
}

func TestThreadStacksAreDisjoint(t *testing.T) {
	s0, err := NewStack(0)
	if err != nil {
		t.Fatalf("NewStack(0): %v", err)
	}
	s1, err := NewStack(1)
	if err != nil {
		t.Fatalf("NewStack(1): %v", err)
	}
	a, _ := s0.Alloc(int64(ThreadStackSize) - Align)
	b, _ := s1.Alloc(16)
	if b < a+ThreadStackSize-Align && a < b+16 {
		t.Fatal("thread stacks overlap")
	}
	if _, err := NewStack(int((StackLimit - StackBase) / ThreadStackSize)); err == nil {
		t.Error("NewStack beyond region did not error")
	}
}

func TestGlobalsLayout(t *testing.T) {
	g := NewGlobals()
	a, err := g.Define("alpha", 100)
	if err != nil {
		t.Fatalf("Define: %v", err)
	}
	b, err := g.Define("beta", 8)
	if err != nil {
		t.Fatalf("Define: %v", err)
	}
	if a == b || b < a+100 {
		t.Fatalf("globals overlap: alpha=%#x beta=%#x", a, b)
	}
	if _, err := g.Define("alpha", 4); err == nil {
		t.Error("duplicate Define did not error")
	}
	def, ok := g.Lookup("alpha")
	if !ok || def.Addr != a || def.Size != 100 {
		t.Fatalf("Lookup(alpha) = %+v, %v", def, ok)
	}
	if got := len(g.All()); got != 2 {
		t.Fatalf("All() returned %d defs, want 2", got)
	}
	if g.TotalBytes() < 108 {
		t.Fatalf("TotalBytes = %d, want >= 108", g.TotalBytes())
	}
}

func TestHeapReset(t *testing.T) {
	h := NewHeap()
	first, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(128); err != nil {
		t.Fatal(err)
	}
	h.Free(first)
	h.Free(first) // double free: counted UB
	h.Reset()
	if st := h.Stats(); st != (Stats{}) {
		t.Errorf("Stats after Reset = %+v, want zero", st)
	}
	// Addresses repeat exactly: a reset heap is indistinguishable from new.
	again, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Errorf("first allocation after Reset = %#x, want %#x", again, first)
	}
}

func TestGlobalsReset(t *testing.T) {
	g := NewGlobals()
	a1, err := g.Define("x", 24)
	if err != nil {
		t.Fatal(err)
	}
	g.Reset()
	if _, ok := g.Lookup("x"); ok {
		t.Error("Lookup succeeds after Reset")
	}
	if got := g.TotalBytes(); got != 0 {
		t.Errorf("TotalBytes after Reset = %d, want 0", got)
	}
	// Redefining the same name is legal again and lands at the same address.
	a2, err := g.Define("x", 24)
	if err != nil {
		t.Fatalf("redefine after Reset: %v", err)
	}
	if a1 != a2 {
		t.Errorf("address after Reset = %#x, want %#x", a2, a1)
	}
}

func TestStackReset(t *testing.T) {
	s, err := NewStack(0)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if got := s.PeakBytes(); got != 0 {
		t.Errorf("PeakBytes after Reset = %d, want 0", got)
	}
	again, err := s.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Errorf("allocation after Reset = %#x, want %#x", again, first)
	}
}

// BenchmarkHeapAllocFree is allocator churn over a working set of 256 live
// chunks, one freed and one allocated per iteration: omnetpp-like chunks of
// 16–64 B, and the chunks of juliet's quarantine-eviction shapes, whose
// four classes (128 KiB, 132 KiB, each also plus 16 B) take 19% of that
// workload's allocations.
func BenchmarkHeapAllocFree(b *testing.B) {
	rng := splitmix.New(1)
	var small, large [1024]int64
	for i := range small {
		small[i] = int64(rng.RangeIn(16, 64))
		large[i] = int64(128<<10 + 4<<10*rng.Intn(2) + 16*rng.Intn(2))
	}
	b.Run("16-64B", func(b *testing.B) { benchChurn(b, small[:]) })
	b.Run("128KiB", func(b *testing.B) { benchChurn(b, large[:]) })
}

func benchChurn(b *testing.B, sizes []int64) {
	h := NewHeap()
	var live [256]uint64
	for i := range live {
		live[i], _ = h.Alloc(sizes[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i * 7 % len(live)
		h.Free(live[k])
		a, err := h.Alloc(sizes[i%len(sizes)])
		if err != nil {
			b.Fatal(err)
		}
		live[k] = a
	}
}

// refHeap is a map-based reference model of Heap's observable behaviour:
// bump allocation, LIFO reuse per rounded size, base-only Lookup and Free,
// and the counters Stats reports.
type refHeap struct {
	brk   uint64
	free  map[int64][]uint64
	live  map[uint64]int64
	stats Stats
}

func newRefHeap() *refHeap {
	return &refHeap{brk: HeapBase, free: map[int64][]uint64{}, live: map[uint64]int64{}}
}

func (r *refHeap) alloc(size int64) (uint64, error) {
	rs := roundUp(size)
	var base uint64
	if fl := r.free[rs]; len(fl) > 0 {
		base = fl[len(fl)-1]
		r.free[rs] = fl[:len(fl)-1]
	} else {
		if rs < 0 || r.brk+uint64(rs) > HeapLimit {
			return 0, fmt.Errorf("%w: heap segment exhausted (brk=%#x, request=%d)", ErrOutOfMemory, r.brk, rs)
		}
		base = r.brk
		r.brk += uint64(rs)
	}
	r.live[base] = rs
	r.stats.LiveBytes += rs
	r.stats.LiveCount++
	r.stats.AllocCount++
	r.stats.PeakLive = max(r.stats.PeakLive, r.stats.LiveBytes)
	r.stats.BrkBytes = int64(r.brk - HeapBase)
	return base, nil
}

func (r *refHeap) release(addr uint64) bool {
	rs, ok := r.live[addr]
	if !ok {
		r.stats.FreeErrors++
		return false
	}
	delete(r.live, addr)
	r.stats.LiveBytes -= rs
	r.stats.LiveCount--
	r.free[rs] = append(r.free[rs], addr)
	return true
}

// TestHeapMatchesReference drives seeded Alloc, Free, Lookup and Reset
// sequences through one reused Heap, a new Heap per round, and the
// map-based reference model, and requires identical results: addresses,
// errors, Lookup answers, Free verdicts and Stats. Sizes straddle the
// class-table bound, include huge requests and sizes whose rounding
// overflows (ErrOutOfMemory) or that fill the segment, and frees hit live bases, interior
// addresses, freed chunks and addresses outside the heap. Because the
// reused heap is Reset between rounds and must match the new one, a reset
// heap hands out the addresses of a new one.
func TestHeapMatchesReference(t *testing.T) {
	reused := NewHeap()
	for seed := uint64(1); seed <= 30; seed++ {
		rng := splitmix.New(seed)
		fresh, ref := NewHeap(), newRefHeap()
		heaps := []*Heap{reused, fresh}
		var bases []uint64 // every base ever returned this round
		size := func() int64 {
			switch rng.Intn(10) {
			case 0:
				return int64(rng.RangeIn(classMax-40, classMax+40))
			case 1:
				if rng.Chance(1, 20) {
					return int64(rng.RangeIn(1<<28, 1<<30)) // sparse live table
				}
				return int64(rng.RangeIn(4<<10, 2*classMax))
			case 2:
				return int64(rng.RangeIn(-3, 0))
			case 3:
				if rng.Chance(1, 2) {
					return math.MaxInt64 - int64(rng.Intn(15))
				}
				return int64(HeapLimit) + int64(rng.Intn(1<<20))
			default:
				return int64(rng.RangeIn(1, 128))
			}
		}
		for op := 0; op < 2000; op++ {
			switch k := rng.Intn(8); {
			case k < 4:
				sz := size()
				want, wantErr := ref.alloc(sz)
				for i, h := range heaps {
					got, err := h.Alloc(sz)
					if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) || (wantErr != nil) != errors.Is(err, ErrOutOfMemory) {
						t.Fatalf("seed %d op %d heap %d: Alloc(%d) = (%#x, %v), reference (%#x, %v)", seed, op, i, sz, got, err, want, wantErr)
					}
				}
				if wantErr == nil {
					bases = append(bases, want)
				}
			case k < 7 && len(bases) > 0:
				addr := bases[rng.Intn(len(bases))]
				switch rng.Intn(4) {
				case 0:
					addr += uint64(rng.RangeIn(1, 31)) // interior or next chunk
				case 1:
					addr = HeapBase - Align*uint64(rng.RangeIn(0, 4))
				}
				want := ref.release(addr)
				for i, h := range heaps {
					if got := h.Free(addr); got != want {
						t.Fatalf("seed %d op %d heap %d: Free(%#x) = %v, reference %v", seed, op, i, addr, got, want)
					}
				}
			case len(bases) > 0:
				addr := bases[rng.Intn(len(bases))] + Align*uint64(rng.Intn(2))
				want, wantOK := ref.live[addr]
				for i, h := range heaps {
					if got, ok := h.Lookup(addr); got != want || ok != wantOK {
						t.Fatalf("seed %d op %d heap %d: Lookup(%#x) = (%d, %v), reference (%d, %v)", seed, op, i, addr, got, ok, want, wantOK)
					}
				}
			}
		}
		for i, h := range heaps {
			if got := h.Stats(); got != ref.stats {
				t.Fatalf("seed %d heap %d: Stats = %+v, reference %+v", seed, i, got, ref.stats)
			}
		}
		reused.Reset()
		if got := reused.Stats(); got != (Stats{}) {
			t.Fatalf("seed %d: Stats after Reset = %+v, want zero", seed, got)
		}
		for _, b := range bases {
			if _, ok := reused.Lookup(b); ok {
				t.Fatalf("seed %d: %#x still live after Reset", seed, b)
			}
		}
	}
}

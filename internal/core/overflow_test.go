package core

import (
	"testing"
	"testing/quick"

	"cecsan/internal/alloc"
	"cecsan/internal/mem"
	"cecsan/internal/rt"
	"cecsan/internal/tagptr"
)

func newChainedRuntime(t *testing.T) *Runtime {
	t.Helper()
	opts := DefaultOptions()
	opts.OverflowChaining = true
	r, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	space, err := mem.NewSpace(47)
	if err != nil {
		t.Fatal(err)
	}
	env := rt.Env{Space: space, Heap: alloc.NewHeap()}
	if err := r.Attach(&env); err != nil {
		t.Fatal(err)
	}
	return r
}

// exhaust fills the table so subsequent allocations chain.
func exhaust(t *testing.T, r *Runtime) {
	t.Helper()
	for {
		if _, ok := r.Table().Allocate(0x1000, 0x1040, false); !ok {
			return
		}
	}
}

func TestSpillIndexBasics(t *testing.T) {
	var s spillIndex
	s.insert(100, 164)
	s.insert(300, 332)
	s.insert(200, 232)

	tests := []struct {
		addr     uint64
		wantBase uint64
		wantOK   bool
	}{
		{100, 100, true},
		{163, 100, true},
		{164, 0, false}, // end is exclusive
		{99, 0, false},
		{216, 200, true},
		{250, 0, false},
		{331, 300, true},
	}
	for _, tt := range tests {
		sp, ok := s.lookup(tt.addr)
		if ok != tt.wantOK || (ok && sp.base != tt.wantBase) {
			t.Errorf("lookup(%d) = (%+v,%v), want base %d ok %v", tt.addr, sp, ok, tt.wantBase, tt.wantOK)
		}
	}
	if !s.remove(200) {
		t.Fatal("remove(200) failed")
	}
	if s.remove(200) {
		t.Fatal("second remove(200) succeeded")
	}
	if _, ok := s.lookup(216); ok {
		t.Fatal("lookup found a removed span")
	}
	if s.size() != 2 || s.bytes() != 32 {
		t.Fatalf("size=%d bytes=%d", s.size(), s.bytes())
	}
}

// TestSpillIndexProperty cross-checks lookup against a naive scan under
// random insert/remove interleavings.
func TestSpillIndexProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		var s spillIndex
		ref := map[uint64]uint64{} // base -> end
		for i, op := range ops {
			base := uint64(op%512)*64 + 0x1000
			if op%3 == 0 {
				if _, dup := ref[base]; !dup {
					s.insert(base, base+48)
					ref[base] = base + 48
				}
			} else if op%3 == 1 {
				if _, ok := ref[base]; ok {
					if !s.remove(base) {
						return false
					}
					delete(ref, base)
				}
			} else {
				addr := base + uint64(i%64)
				sp, ok := s.lookup(addr)
				var wantOK bool
				var wantBase uint64
				for b, e := range ref {
					if addr >= b && addr < e {
						wantOK, wantBase = true, b
					}
				}
				if ok != wantOK || (ok && sp.base != wantBase) {
					return false
				}
			}
		}
		return s.size() == len(ref)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestChainedProtectionAfterExhaustion(t *testing.T) {
	r := newChainedRuntime(t)
	exhaust(t, r)

	p, _, err := r.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if got := tagptr.X8664.Index(p); got != tagptr.X8664.MaxIndex() {
		t.Fatalf("chained pointer tag = %#x, want CHAINED %#x", got, tagptr.X8664.MaxIndex())
	}
	// In-bounds accesses pass, including through interior pointers.
	if v := r.Check(p, rt.PtrMeta{}, 0, 64, rt.Write); v != nil {
		t.Fatalf("in-bounds chained access reported: %v", v)
	}
	if v := r.Check(p+32, rt.PtrMeta{}, 0, 8, rt.Read); v != nil {
		t.Fatalf("interior chained access reported: %v", v)
	}
	// Overflow past the chained object is caught (unlike the fallback mode,
	// which gives up protection entirely).
	if v := r.Check(p, rt.PtrMeta{}, 64, 1, rt.Write); v == nil {
		t.Fatal("chained overflow not detected")
	}
	// Temporal: free then use.
	if v := r.Free(p, rt.PtrMeta{}); v != nil {
		t.Fatalf("chained free reported: %v", v)
	}
	if v := r.Check(p, rt.PtrMeta{}, 0, 8, rt.Read); v == nil {
		t.Fatal("chained use-after-free not detected")
	}
	// Double free.
	if v := r.Free(p, rt.PtrMeta{}); v == nil {
		t.Fatal("chained double free not detected")
	}
	if r.ChainedObjects() != 0 {
		t.Fatalf("ChainedObjects = %d, want 0", r.ChainedObjects())
	}
}

func TestChainedExternBoundary(t *testing.T) {
	r := newChainedRuntime(t)
	exhaust(t, r)
	p, _, err := r.Malloc(32)
	if err != nil {
		t.Fatal(err)
	}
	raw, v := r.PrepareExternArg(p)
	if v != nil {
		t.Fatalf("valid chained pointer rejected at boundary: %v", v)
	}
	if tagptr.X8664.IsTagged(raw) {
		t.Fatal("chained pointer not stripped")
	}
	r.Free(p, rt.PtrMeta{})
	if _, v := r.PrepareExternArg(p); v == nil {
		t.Fatal("dangling chained pointer not rejected at boundary")
	}
}

func TestChainingDisabledFallsBackUnprotected(t *testing.T) {
	// Baseline behaviour without the extension, for contrast.
	r := newRuntime(t)
	tbl := r.Table()
	for {
		if _, ok := tbl.Allocate(0x1000, 0x1040, false); !ok {
			break
		}
	}
	p, _, err := r.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if tagptr.X8664.IsTagged(p) {
		t.Fatal("fallback pointer is tagged")
	}
	if v := r.Check(p, rt.PtrMeta{}, 64, 1, rt.Write); v != nil {
		t.Fatalf("fallback mode unexpectedly protected: %v", v)
	}
}

func TestOverheadIncludesSpill(t *testing.T) {
	r := newChainedRuntime(t)
	exhaust(t, r)
	before := r.OverheadBytes()
	for i := 0; i < 100; i++ {
		if _, _, err := r.Malloc(32); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.OverheadBytes(); got != before+100*16 {
		t.Fatalf("OverheadBytes = %d, want %d", got, before+100*16)
	}
}

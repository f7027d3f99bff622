package softbound

import (
	"testing"

	"cecsan/internal/alloc"
	"cecsan/internal/mem"
	"cecsan/internal/rt"
)

func newRuntime(t *testing.T) *Runtime {
	t.Helper()
	r := New()
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

func TestBoundsCheckThroughMeta(t *testing.T) {
	r := newRuntime(t)
	p, meta, err := r.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Valid() {
		t.Fatal("malloc returned no metadata")
	}
	if v := r.Check(p, meta, 56, 8, rt.Write); v != nil {
		t.Fatalf("in-bounds: %v", v)
	}
	if v := r.Check(p, meta, 64, 1, rt.Write); v == nil {
		t.Fatal("overflow not detected")
	}
	if v := r.Check(p, meta, -1, 1, rt.Read); v == nil {
		t.Fatal("underflow not detected")
	}
}

func TestMetalessPointersUnchecked(t *testing.T) {
	r := newRuntime(t)
	// SoftBound's compatibility rule: pointers without metadata (from
	// uninstrumented code) are never checked.
	if v := r.Check(alloc.HeapBase, rt.PtrMeta{}, 1<<20, 8, rt.Write); v != nil {
		t.Fatalf("metaless pointer checked: %v", v)
	}
}

func TestCETSLockAndKey(t *testing.T) {
	r := newRuntime(t)
	p, meta, _ := r.Malloc(32)
	if v := r.Free(p, meta); v != nil {
		t.Fatalf("legal free: %v", v)
	}
	// The key no longer matches the (zeroed, possibly recycled) lock.
	if v := r.Check(p, meta, 0, 8, rt.Read); v == nil {
		t.Fatal("use-after-free not detected via lock-and-key")
	}
	if v := r.Free(p, meta); v == nil {
		t.Fatal("double free not detected")
	}
}

func TestLockRecyclingKeepsGenerationsApart(t *testing.T) {
	r := newRuntime(t)
	p1, m1, _ := r.Malloc(32)
	r.Free(p1, m1)
	// The next allocation recycles the lock cell with a NEW key.
	_, m2, _ := r.Malloc(32)
	if m2.Lock != m1.Lock {
		t.Skip("lock cell not recycled; generation test not applicable")
	}
	if v := r.Check(p1, m1, 0, 8, rt.Read); v == nil {
		t.Fatal("stale key accepted after lock recycling")
	}
	if v := r.Check(p1, m2, 0, 8, rt.Read); v != nil {
		t.Fatalf("fresh generation rejected: %v", v)
	}
}

func TestInvalidFreeByBase(t *testing.T) {
	r := newRuntime(t)
	p, meta, _ := r.Malloc(64)
	if v := r.Free(p+8, meta); v == nil || v.Kind != rt.KindInvalidFree {
		t.Fatalf("interior free: %v, want invalid-free", v)
	}
}

func TestShadowPropagationLosesTemporalKey(t *testing.T) {
	r := newRuntime(t)
	_, meta, _ := r.Malloc(32)
	r.StorePtrMeta(0x5000, meta)
	got := r.LoadPtrMeta(0x5000)
	if !got.Valid() {
		t.Fatal("shadow lost the bounds")
	}
	if got.Base != meta.Base || got.Bound != meta.Bound {
		t.Fatal("shadow corrupted the bounds")
	}
	// The modelled prototype defect: the CETS pair does not survive memory.
	if got.Lock != nil || got.Key != 0 {
		t.Fatal("shadow kept the lock-and-key pair; the modelled defect is gone")
	}
	// Storing invalid metadata clears the slot.
	r.StorePtrMeta(0x5000, rt.PtrMeta{})
	if r.LoadPtrMeta(0x5000).Valid() {
		t.Fatal("shadow slot not cleared")
	}
}

func TestWrapperGaps(t *testing.T) {
	r := newRuntime(t)
	p, meta, _ := r.Malloc(16)
	// Missing wrappers: wide family and memset pass unchecked.
	for _, fn := range []string{"wcsncpy", "wmemset", "memset", "print_str"} {
		if v := r.LibcCheck(fn, p, meta, 1<<12, rt.Write); v != nil {
			t.Errorf("%s checked: %v (released prototype lacks this wrapper)", fn, v)
		}
	}
	// Present wrappers catch overflows.
	if v := r.LibcCheck("memcpy", p, meta, 32, rt.Write); v == nil {
		t.Error("memcpy wrapper missing")
	}
	// The off-by-one strncpy wrapper: an exact-fit write is (wrongly)
	// reported — the modelled false-positive source.
	if v := r.LibcCheck("strncpy", p, meta, 16, rt.Write); v == nil {
		t.Error("strncpy off-by-one false positive not reproduced")
	}
}

func TestOverheadCountsShadowAndLocks(t *testing.T) {
	r := newRuntime(t)
	_, meta, _ := r.Malloc(16)
	r.StorePtrMeta(0x7000, meta)
	if got := r.OverheadBytes(); got < 32+8 {
		t.Fatalf("OverheadBytes = %d, want >= 40", got)
	}
}

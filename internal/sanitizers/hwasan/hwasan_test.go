package hwasan

import (
	"testing"

	"cecsan/internal/alloc"
	"cecsan/internal/mem"
	"cecsan/internal/rt"
)

func newRuntime(t *testing.T) *Runtime {
	t.Helper()
	r := New(7)
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

func TestTagCodec(t *testing.T) {
	p := withTag(0x12345678, 0xAB)
	if tagOf(p) != 0xAB {
		t.Fatalf("tagOf = %#x", tagOf(p))
	}
	if strip(p) != 0x12345678 {
		t.Fatalf("strip = %#x", strip(p))
	}
}

func TestMallocTagsPointerAndMemory(t *testing.T) {
	r := newRuntime(t)
	p, _, err := r.Malloc(48)
	if err != nil {
		t.Fatal(err)
	}
	if tagOf(p) == 0 {
		t.Fatal("malloc returned untagged pointer")
	}
	// In-bounds accesses pass; granule-crossing overflow fails.
	if v := r.Check(p, rt.PtrMeta{}, 0, 48, rt.Write); v != nil {
		t.Fatalf("in-bounds: %v", v)
	}
	if v := r.Check(p, rt.PtrMeta{}, 48, 1, rt.Write); v == nil {
		t.Fatal("cross-granule overflow not detected (48 is granule-aligned)")
	}
}

func TestIntraGranuleBlindSpot(t *testing.T) {
	r := newRuntime(t)
	p, _, err := r.Malloc(13) // rounded to one 16-byte granule
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Check(p, rt.PtrMeta{}, 13, 1, rt.Write); v != nil {
		t.Fatalf("intra-granule overflow unexpectedly detected: %v (the design gap)", v)
	}
	if v := r.Check(p, rt.PtrMeta{}, 16, 1, rt.Write); v == nil {
		t.Fatal("next-granule overflow not detected")
	}
}

func TestFreeRetagsSoUAFIsCaught(t *testing.T) {
	r := newRuntime(t)
	p, _, _ := r.Malloc(32)
	if v := r.Free(p, rt.PtrMeta{}); v != nil {
		t.Fatalf("legal free: %v", v)
	}
	if v := r.Check(p, rt.PtrMeta{}, 0, 8, rt.Read); v == nil {
		t.Fatal("use-after-free not detected after retag")
	}
	// Double free: pointer tag no longer matches the retagged memory.
	if v := r.Free(p, rt.PtrMeta{}); v == nil {
		t.Fatal("double free not detected")
	}
}

func TestInteriorFreePassesSilently(t *testing.T) {
	r := newRuntime(t)
	p, _, _ := r.Malloc(64)
	// Interior pointer: same tag as the chunk -> the tag-only free check
	// passes and the allocator silently ignores it (CWE761 = 0%).
	if v := r.Free(p+16, rt.PtrMeta{}); v != nil {
		t.Fatalf("interior free reported by HWASan: %v (should be its blind spot)", v)
	}
	// The object must still be intact and usable.
	if v := r.Check(p, rt.PtrMeta{}, 0, 64, rt.Write); v != nil {
		t.Fatalf("object damaged by interior free: %v", v)
	}
}

func TestUntaggedPointersUnchecked(t *testing.T) {
	r := newRuntime(t)
	if v := r.Check(alloc.HeapBase+0x999, rt.PtrMeta{}, 1<<20, 8, rt.Write); v != nil {
		t.Fatalf("untagged pointer checked: %v", v)
	}
}

func TestStackTaggingAndUARGap(t *testing.T) {
	r := newRuntime(t)
	p, _ := r.StackAlloc(alloc.StackBase+0x100, 32, true)
	if tagOf(p) == 0 {
		t.Fatal("tracked stack object untagged")
	}
	if v := r.Check(p, rt.PtrMeta{}, 32, 1, rt.Write); v == nil {
		t.Fatal("stack overflow not detected")
	}
	// Frames are NOT retagged on release: use-after-return passes.
	r.StackRelease(p, 32)
	if v := r.Check(p, rt.PtrMeta{}, 0, 8, rt.Read); v != nil {
		t.Fatalf("use-after-return unexpectedly detected: %v (design gap)", v)
	}
}

func TestDeterministicTagStream(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.nextTag() != b.nextTag() {
			t.Fatal("tag streams diverged for equal seeds")
		}
	}
	if New(1).nextTag() == New(2).nextTag() && New(1).nextTag() == New(2).nextTag() {
		t.Log("different seeds produced an equal prefix (possible but unlikely)")
	}
}

func TestWideInterceptorGap(t *testing.T) {
	r := newRuntime(t)
	p, _, _ := r.Malloc(16)
	if v := r.LibcCheck("wcsncpy", p, rt.PtrMeta{}, 64, rt.Write); v != nil {
		t.Fatalf("wide function checked: %v (gap expected)", v)
	}
	if v := r.LibcCheck("memcpy", p, rt.PtrMeta{}, 64, rt.Write); v == nil {
		t.Fatal("memcpy interceptor missing")
	}
}

func TestOverheadIsTagShadowOnly(t *testing.T) {
	r := newRuntime(t)
	before := r.OverheadBytes()
	for i := 0; i < 100; i++ {
		r.Malloc(1 << 12)
	}
	after := r.OverheadBytes()
	if after <= before {
		t.Fatal("tag shadow not accounted")
	}
	// 1/16 shadow of ~400KB data, chunk-granular: well under 1 MiB.
	if after > 1<<20 {
		t.Fatalf("overhead %d too large for tag shadow", after)
	}
}

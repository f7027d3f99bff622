package asan

import (
	"testing"

	"cecsan/internal/alloc"
	"cecsan/internal/mem"
	"cecsan/internal/rt"
)

func newRuntime(t *testing.T, opts Options) *Runtime {
	t.Helper()
	r := New(opts)
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

func TestRedzoneScaling(t *testing.T) {
	r := New(DefaultOptions())
	tests := []struct {
		size   int64
		wantRZ int64
	}{
		{16, 16},
		{128, 16},
		{1 << 10, 128},
		{1 << 20, 2048}, // capped at RedzoneMax
	}
	for _, tt := range tests {
		if got := r.redzoneFor(tt.size); got != tt.wantRZ {
			t.Errorf("redzoneFor(%d) = %d, want %d", tt.size, got, tt.wantRZ)
		}
	}
}

func TestShadowPartialGranule(t *testing.T) {
	r := newRuntime(t, DefaultOptions())
	p, _, err := r.Malloc(13) // last granule partially addressable
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Check(p, rt.PtrMeta{}, 12, 1, rt.Write); v != nil {
		t.Fatalf("last valid byte reported: %v", v)
	}
	// Byte 13 is inside the object's final granule but past the partial
	// marker: the partial-granule encoding catches it.
	if v := r.Check(p, rt.PtrMeta{}, 13, 1, rt.Write); v == nil {
		t.Fatal("intra-granule off-by-one not detected (partial shadow broken)")
	}
}

func TestRedzonesCatchContiguousOverflow(t *testing.T) {
	r := newRuntime(t, DefaultOptions())
	p, _, _ := r.Malloc(64)
	if v := r.Check(p, rt.PtrMeta{}, 64, 8, rt.Write); v == nil {
		t.Fatal("right redzone not poisoned")
	}
	if v := r.Check(p, rt.PtrMeta{}, -8, 8, rt.Write); v == nil {
		t.Fatal("left redzone not poisoned")
	}
}

func TestStrideSkipsRedzone(t *testing.T) {
	r := newRuntime(t, DefaultOptions())
	p, _, _ := r.Malloc(64)
	// Far beyond both redzones: virgin shadow is addressable -> miss.
	if v := r.Check(p, rt.PtrMeta{}, 1<<16, 8, rt.Write); v != nil {
		t.Fatalf("far stride unexpectedly detected: %v (location-based gap)", v)
	}
}

func TestQuarantineDelaysReuseThenReleases(t *testing.T) {
	opts := DefaultOptions()
	opts.QuarantineBytes = 1 << 12 // tiny, to force eviction
	r := newRuntime(t, opts)

	p, _, _ := r.Malloc(64)
	if v := r.Free(p, rt.PtrMeta{}); v != nil {
		t.Fatalf("free: %v", v)
	}
	// While quarantined: UAF caught, double free caught.
	if v := r.Check(p, rt.PtrMeta{}, 0, 8, rt.Read); v == nil {
		t.Fatal("UAF on quarantined chunk not detected")
	}
	if v := r.Free(p, rt.PtrMeta{}); v == nil || v.Kind != rt.KindDoubleFree {
		t.Fatalf("double free on quarantined chunk: %v", v)
	}
	// Churn enough same-class chunks to evict and recycle p's memory.
	var last uint64
	for i := 0; i < 200; i++ {
		q, _, _ := r.Malloc(64)
		r.Free(q, rt.PtrMeta{})
		last = q
	}
	_ = last
	fresh, _, _ := r.Malloc(64)
	if fresh != p {
		t.Skipf("allocator did not recycle p (%#x vs %#x)", fresh, p)
	}
	// The recycled memory is addressable again: the old UAF is now missed.
	if v := r.Check(p, rt.PtrMeta{}, 0, 8, rt.Read); v != nil {
		t.Fatalf("post-recycling access reported: %v (quarantine gap expected)", v)
	}
}

func TestInvalidFreeClassification(t *testing.T) {
	r := newRuntime(t, DefaultOptions())
	p, _, _ := r.Malloc(64)
	if v := r.Free(p+8, rt.PtrMeta{}); v == nil || v.Kind != rt.KindInvalidFree {
		t.Fatalf("interior free: %v, want invalid-free", v)
	}
	if v := r.Free(alloc.StackBase+64, rt.PtrMeta{}); v == nil || v.Kind != rt.KindInvalidFree {
		t.Fatalf("stack free: %v, want invalid-free", v)
	}
}

func TestGlobalRedzone(t *testing.T) {
	r := newRuntime(t, DefaultOptions())
	const raw = alloc.GlobalsBase + 0x100
	p, _ := r.GlobalInit("g", raw, 24, true)
	if v := r.Check(p, rt.PtrMeta{}, 23, 1, rt.Write); v != nil {
		t.Fatalf("in-bounds global write reported: %v", v)
	}
	if v := r.Check(p, rt.PtrMeta{}, 24, 1, rt.Write); v == nil {
		t.Fatal("global right redzone not poisoned")
	}
}

func TestWideAndPrintInterceptorGaps(t *testing.T) {
	r := newRuntime(t, DefaultOptions())
	p, _, _ := r.Malloc(16)
	for _, fn := range []string{"wcsncpy", "wmemset", "print_str"} {
		if v := r.LibcCheck(fn, p, rt.PtrMeta{}, 1<<10, rt.Write); v != nil {
			t.Errorf("%s intercepted: %v (gap expected)", fn, v)
		}
	}
	if v := r.LibcCheck("memcpy", p, rt.PtrMeta{}, 32, rt.Write); v == nil {
		t.Error("memcpy interceptor missing")
	}
	// With InterceptWide enabled, the wide family IS checked.
	opts := DefaultOptions()
	opts.InterceptWide = true
	r2 := newRuntime(t, opts)
	q, _, _ := r2.Malloc(16)
	if v := r2.LibcCheck("wcsncpy", q, rt.PtrMeta{}, 64, rt.Write); v == nil {
		t.Error("InterceptWide did not enable the wide interceptor")
	}
}

func TestOverheadAccountsShadowRedzonesQuarantine(t *testing.T) {
	r := newRuntime(t, DefaultOptions())
	base := r.OverheadBytes()
	p, _, _ := r.Malloc(1 << 10)
	afterAlloc := r.OverheadBytes()
	if afterAlloc <= base {
		t.Fatal("redzones/shadow not accounted after malloc")
	}
	r.Free(p, rt.PtrMeta{})
	if r.OverheadBytes() <= afterAlloc {
		t.Fatal("quarantine not accounted after free")
	}
}

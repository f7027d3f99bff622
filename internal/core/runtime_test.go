package core

import (
	"strings"
	"testing"

	"cecsan/internal/alloc"
	"cecsan/internal/mem"
	"cecsan/internal/rt"
	"cecsan/internal/tagptr"
)

func newRuntime(t *testing.T) *Runtime {
	t.Helper()
	r, err := New(DefaultOptions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	space, err := mem.NewSpace(47)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	env := rt.Env{Space: space, Heap: alloc.NewHeap()}
	if err := r.Attach(&env); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	return r
}

func mustMalloc(t *testing.T, r *Runtime, size int64) uint64 {
	t.Helper()
	p, _, err := r.Malloc(size)
	if err != nil {
		t.Fatalf("Malloc(%d): %v", size, err)
	}
	return p
}

func TestMallocReturnsTaggedPointer(t *testing.T) {
	r := newRuntime(t)
	p := mustMalloc(t, r, 64)
	if !tagptr.X8664.IsTagged(p) {
		t.Fatalf("Malloc returned untagged pointer %#x", p)
	}
	if raw := r.Addr(p); alloc.SegmentOf(raw) != alloc.SegHeap {
		t.Fatalf("stripped pointer %#x not in heap segment", raw)
	}
}

func TestCheckInBoundsAccesses(t *testing.T) {
	r := newRuntime(t)
	p := mustMalloc(t, r, 64)
	tests := []struct {
		name string
		off  int64
		size int64
	}{
		{name: "first byte", off: 0, size: 1},
		{name: "interior word", off: 32, size: 8},
		{name: "last byte", off: 63, size: 1},
		{name: "exactly filling access", off: 56, size: 8},
		{name: "whole object", off: 0, size: 64},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if v := r.Check(p, rt.PtrMeta{}, tt.off, tt.size, rt.Read); v != nil {
				t.Fatalf("false positive: %v", v)
			}
			if v := r.Check(p, rt.PtrMeta{}, tt.off, tt.size, rt.Write); v != nil {
				t.Fatalf("false positive on write: %v", v)
			}
		})
	}
}

func TestCheckOutOfBoundsAccesses(t *testing.T) {
	r := newRuntime(t)
	p := mustMalloc(t, r, 64)
	tests := []struct {
		name string
		off  int64
		size int64
		kind rt.AccessKind
		want rt.Kind
	}{
		{name: "off-by-one write", off: 64, size: 1, kind: rt.Write, want: rt.KindOOBWrite},
		{name: "straddling end", off: 60, size: 8, kind: rt.Write, want: rt.KindOOBWrite},
		{name: "far overflow read", off: 4096, size: 4, kind: rt.Read, want: rt.KindOOBRead},
		{name: "underflow", off: -1, size: 1, kind: rt.Write, want: rt.KindOOBWrite},
		{name: "far underflow", off: -4096, size: 8, kind: rt.Read, want: rt.KindOOBRead},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := r.Check(p, rt.PtrMeta{}, tt.off, tt.size, tt.kind)
			if v == nil {
				t.Fatal("out-of-bounds access not detected")
			}
			if v.Kind != tt.want {
				t.Fatalf("kind = %v, want %v", v.Kind, tt.want)
			}
		})
	}
}

// TestCheckDetectsRedzoneSkippingOverflow is the attack ASan's redzones
// miss: a stride large enough to land inside ANOTHER live object. CECSan's
// identity-based bounds catch it regardless of where the access lands.
func TestCheckDetectsRedzoneSkippingOverflow(t *testing.T) {
	r := newRuntime(t)
	a := mustMalloc(t, r, 64)
	b := mustMalloc(t, r, 64)
	dist := int64(r.Addr(b) - r.Addr(a))
	if v := r.Check(a, rt.PtrMeta{}, dist+8, 1, rt.Write); v == nil {
		t.Fatal("stride overflow into a neighbouring live object not detected")
	}
}

func TestUseAfterFreeDetected(t *testing.T) {
	r := newRuntime(t)
	p := mustMalloc(t, r, 64)
	if v := r.Free(p, rt.PtrMeta{}); v != nil {
		t.Fatalf("legal free reported: %v", v)
	}
	v := r.Check(p, rt.PtrMeta{}, 0, 8, rt.Read)
	if v == nil {
		t.Fatal("use-after-free not detected")
	}
	if v.Kind != rt.KindUseAfterFree {
		t.Fatalf("kind = %v, want use-after-free", v.Kind)
	}
}

// TestUseAfterFreeWithImmediateReuse: glibc-style LIFO reuse hands the same
// memory to a new object. The dangling pointer's table entry was also
// recycled — but the new entry's bounds don't match the stale tag's object,
// or the entry's low bound is INVALID; either way the check fails (§II.C.1).
func TestUseAfterFreeWithReuse(t *testing.T) {
	r := newRuntime(t)
	p := mustMalloc(t, r, 64)
	r.Free(p, rt.PtrMeta{})
	q := mustMalloc(t, r, 64) // reuses both the chunk and the table entry
	if r.Addr(q) != r.Addr(p) {
		t.Skip("allocator did not reuse the chunk; scenario not reproduced")
	}
	// The stale pointer p carries the old tag; the entry now belongs to q.
	// Dereference through p must still be caught... unless the recycled
	// entry accidentally matches. Here sizes are identical and the entry
	// index is the same, so bounds DO match: this is the paper's admitted
	// residual case ("accidentally has the same index"). Verify the
	// documented behaviour: the check passes.
	if v := r.Check(p, rt.PtrMeta{}, 0, 8, rt.Read); v != nil {
		t.Fatalf("documented residual-miss case unexpectedly reported: %v", v)
	}
	// With a different-size object in between, the tag is NOT recycled to
	// the same bounds and the UAF IS caught.
	r.Free(q, rt.PtrMeta{})
	big := mustMalloc(t, r, 128)
	_ = big
	if v := r.Check(q, rt.PtrMeta{}, 0, 8, rt.Read); v == nil {
		t.Fatal("use-after-free with non-matching reuse not detected")
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	r := newRuntime(t)
	p := mustMalloc(t, r, 64)
	r.Free(p, rt.PtrMeta{})
	v := r.Free(p, rt.PtrMeta{})
	if v == nil {
		t.Fatal("double free not detected")
	}
	if v.Kind != rt.KindDoubleFree {
		t.Fatalf("kind = %v, want double-free", v.Kind)
	}
}

func TestInvalidFreeDetected(t *testing.T) {
	r := newRuntime(t)
	p := mustMalloc(t, r, 64)
	v := r.Free(p+16, rt.PtrMeta{})
	if v == nil {
		t.Fatal("free of interior pointer not detected")
	}
	if v.Kind != rt.KindInvalidFree {
		t.Fatalf("kind = %v, want invalid-free", v.Kind)
	}
	if !strings.Contains(v.Detail, "base") {
		t.Errorf("detail %q should mention the base address", v.Detail)
	}
}

// TestInvalidFreeAlignedCollision frees a+dist where dist lands exactly on
// another chunk's base — the case that fools allocator-registry checks
// (ASan's) but not Algorithm 2, because the pointer's TAG still names a's
// metadata whose low bound is a's base, not b's.
func TestInvalidFreeAlignedCollision(t *testing.T) {
	r := newRuntime(t)
	a := mustMalloc(t, r, 64)
	b := mustMalloc(t, r, 64)
	dist := r.Addr(b) - r.Addr(a)
	v := r.Free(a+dist, rt.PtrMeta{})
	if v == nil {
		t.Fatal("aligned-collision invalid free not detected")
	}
	if v.Kind != rt.KindInvalidFree {
		t.Fatalf("kind = %v, want invalid-free", v.Kind)
	}
}

func TestFreeOfStackObjectDetected(t *testing.T) {
	r := newRuntime(t)
	p, _ := r.StackAlloc(alloc.StackBase+0x100, 64, true)
	v := r.Free(p, rt.PtrMeta{})
	if v == nil {
		t.Fatal("free of stack object not detected")
	}
	if v.Kind != rt.KindInvalidFree {
		t.Fatalf("kind = %v, want invalid-free", v.Kind)
	}
}

func TestStackProtectionLifecycle(t *testing.T) {
	r := newRuntime(t)
	const raw = alloc.StackBase + 0x200
	p, _ := r.StackAlloc(raw, 32, true)
	if !tagptr.X8664.IsTagged(p) {
		t.Fatal("tracked stack object not tagged")
	}
	if v := r.Check(p, rt.PtrMeta{}, 0, 32, rt.Write); v != nil {
		t.Fatalf("in-bounds stack access reported: %v", v)
	}
	if v := r.Check(p, rt.PtrMeta{}, 32, 1, rt.Write); v == nil {
		t.Fatal("stack overflow not detected")
	}
	r.StackRelease(p, 32)
	if v := r.Check(p, rt.PtrMeta{}, 0, 1, rt.Read); v == nil {
		t.Fatal("use-after-scope not detected")
	}

	// Untracked ("safe") stack objects are untagged and unchecked.
	q, _ := r.StackAlloc(raw+64, 8, false)
	if tagptr.X8664.IsTagged(q) {
		t.Fatal("untracked stack object was tagged")
	}
}

func TestGlobalProtection(t *testing.T) {
	r := newRuntime(t)
	const raw = alloc.GlobalsBase + 0x40
	p, _ := r.GlobalInit("g_buf", raw, 16, true)
	if !tagptr.X8664.IsTagged(p) {
		t.Fatal("unsafe global not tagged for the GPT")
	}
	if v := r.Check(p, rt.PtrMeta{}, 15, 1, rt.Write); v != nil {
		t.Fatalf("in-bounds global access reported: %v", v)
	}
	if v := r.Check(p, rt.PtrMeta{}, 16, 1, rt.Write); v == nil {
		t.Fatal("global overflow not detected")
	}
	// Safe globals stay untagged.
	q, _ := r.GlobalInit("g_int", raw+32, 4, false)
	if tagptr.X8664.IsTagged(q) {
		t.Fatal("safe global was tagged")
	}
	if r.OverheadBytes() < 8 {
		t.Error("GPT slot not accounted in OverheadBytes")
	}
}

// TestSubObjectNarrowing reproduces Figure 3: a 16-byte field inside a
// 24-byte struct; a 24-byte memcpy through the narrowed field pointer must
// be flagged as a sub-object overflow even though it stays inside the
// parent object.
func TestSubObjectNarrowing(t *testing.T) {
	r := newRuntime(t)
	obj := mustMalloc(t, r, 24) // struct { char charFirst[16]; void *voidSecond; }
	sub, _ := r.SubPtr(obj, 0, 16)

	if v := r.Check(sub, rt.PtrMeta{}, 0, 16, rt.Write); v != nil {
		t.Fatalf("in-bounds sub-object write reported: %v", v)
	}
	v := r.Check(sub, rt.PtrMeta{}, 0, 24, rt.Write) // memcpy(sizeof(struct))
	if v == nil {
		t.Fatal("sub-object overflow not detected (Figure 3)")
	}
	if v.Kind != rt.KindSubObjectOverflow {
		t.Fatalf("kind = %v, want sub-object-overflow", v.Kind)
	}
	// Through the ORIGINAL object pointer the same copy is legal.
	if v := r.Check(obj, rt.PtrMeta{}, 0, 24, rt.Write); v != nil {
		t.Fatalf("whole-object access through object pointer reported: %v", v)
	}
	if r.SubCreated() != 1 {
		t.Errorf("SubCreated = %d, want 1", r.SubCreated())
	}
	// Scope exit releases the narrowed metadata (Figure 3, line 13).
	live := r.Table().Stats().Live
	r.SubRelease(sub)
	if got := r.Table().Stats().Live; got != live-1 {
		t.Errorf("SubRelease did not free the entry: live %d -> %d", live, got)
	}
}

func TestExternArgStripAndCheck(t *testing.T) {
	r := newRuntime(t)
	p := mustMalloc(t, r, 64)
	raw, v := r.PrepareExternArg(p)
	if v != nil {
		t.Fatalf("valid pointer rejected at external boundary: %v", v)
	}
	if tagptr.X8664.IsTagged(raw) {
		t.Fatal("pointer not stripped before external call")
	}
	// One-past-end pointers are legal C and must pass.
	if _, v := r.PrepareExternArg(p + 64); v != nil {
		t.Fatalf("one-past-end pointer rejected: %v", v)
	}
	// Dangling pointers must be rejected (checked and stripped, §II.E).
	r.Free(p, rt.PtrMeta{})
	if _, v := r.PrepareExternArg(p); v == nil {
		t.Fatal("dangling pointer passed to external code not detected")
	}
}

func TestAdoptExternRetUncheckedButUsable(t *testing.T) {
	r := newRuntime(t)
	foreign := r.AdoptExternRet(alloc.HeapBase + 0x5000)
	if tagptr.X8664.IsTagged(foreign) {
		t.Fatal("foreign pointer should map to the reserved entry (tag 0)")
	}
	// Reserved entry 0: any access passes — used as-is, never checked.
	if v := r.Check(foreign, rt.PtrMeta{}, 1<<20, 8, rt.Write); v != nil {
		t.Fatalf("foreign pointer access checked/rejected: %v", v)
	}
	// And freeing it goes straight to the standard deallocator, unchecked.
	if v := r.Free(foreign, rt.PtrMeta{}); v != nil {
		t.Fatalf("free of foreign pointer reported: %v", v)
	}
}

func TestLibcCheckCoversWideCharacterFunctions(t *testing.T) {
	r := newRuntime(t)
	p := mustMalloc(t, r, 40) // wchar_t[10]
	// wcsncpy of 10 wide chars = 40 bytes: fine.
	if v := r.LibcCheck("wcsncpy", p, rt.PtrMeta{}, 40, rt.Write); v != nil {
		t.Fatalf("in-bounds wcsncpy reported: %v", v)
	}
	// 11 wide chars = 44 bytes: CECSan instruments the call site, so the
	// wide-character gap of interceptor-based sanitizers does not exist.
	if v := r.LibcCheck("wcsncpy", p, rt.PtrMeta{}, 44, rt.Write); v == nil {
		t.Fatal("wcsncpy overflow not detected")
	}
	if v := r.LibcCheck("memcpy", p, rt.PtrMeta{}, 0, rt.Write); v != nil {
		t.Fatalf("zero-length libc op reported: %v", v)
	}
}

func TestTableExhaustionFallback(t *testing.T) {
	r := newRuntime(t)
	// Exhaust the table directly (faster than 2^17 Mallocs through the heap).
	tbl := r.Table()
	for {
		if _, ok := tbl.Allocate(0x1000, 0x1040, false); !ok {
			break
		}
	}
	p := mustMalloc(t, r, 64)
	if tagptr.X8664.IsTagged(p) {
		t.Fatal("exhausted-table Malloc returned a tagged pointer")
	}
	// The object is usable (reserved entry semantics) but unprotected.
	if v := r.Check(p, rt.PtrMeta{}, 1<<16, 8, rt.Write); v != nil {
		t.Fatalf("fallback pointer was checked: %v", v)
	}
	if tbl.Stats().Exhausted == 0 {
		t.Error("exhaustion not counted")
	}
	// Its free must not report and must reach the heap.
	if v := r.Free(p, rt.PtrMeta{}); v != nil {
		t.Fatalf("free of fallback pointer reported: %v", v)
	}
}

func TestOverheadBytesIsCompact(t *testing.T) {
	r := newRuntime(t)
	for i := 0; i < 1000; i++ {
		mustMalloc(t, r, 64)
	}
	oh := r.OverheadBytes()
	// 1000 entries * 24B = ~24KB -> a handful of pages, not megabytes:
	// the paper's "compact metadata table" claim.
	if oh > 64*1024 {
		t.Fatalf("OverheadBytes = %d after 1000 allocations, want < 64KiB", oh)
	}
}

func TestPtrMetaNoOps(t *testing.T) {
	r := newRuntime(t)
	if m := r.LoadPtrMeta(0x1000); m.Valid() {
		t.Error("CECSan LoadPtrMeta returned metadata")
	}
	r.StorePtrMeta(0x1000, rt.PtrMeta{Base: 1, Bound: 2}) // must not panic
}

func TestViolationErrorString(t *testing.T) {
	r := newRuntime(t)
	p := mustMalloc(t, r, 16)
	v := r.Check(p, rt.PtrMeta{}, 16, 8, rt.Write)
	if v == nil {
		t.Fatal("expected violation")
	}
	msg := v.Error()
	for _, want := range []string{"buffer-overflow-write", "heap"} {
		if !strings.Contains(msg, want) {
			t.Errorf("violation message %q missing %q", msg, want)
		}
	}
}

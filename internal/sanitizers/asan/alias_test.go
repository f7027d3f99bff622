package asan

import (
	"testing"

	"cecsan/internal/alloc"
	"cecsan/internal/mem"
	"cecsan/internal/rt"
)

// TestNoLiveAliasingUnderEviction: with quarantine eviction active, no two
// live chunks may ever overlap.
func TestNoLiveAliasingUnderEviction(t *testing.T) {
	opts := DefaultOptions()
	opts.QuarantineBytes = 32 << 10
	r := New(opts)
	space, _ := mem.NewSpace(47)
	env := rt.Env{Space: space, Heap: alloc.NewHeap()}
	if err := r.Attach(&env); err != nil {
		t.Fatal(err)
	}
	live := map[uint64]bool{}
	var order []uint64
	rng := uint64(12345)
	for i := 0; i < 60000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		if rng%3 != 0 || len(order) == 0 {
			p, _, err := r.Malloc(48)
			if err != nil {
				t.Fatal(err)
			}
			if live[p] {
				t.Fatalf("iteration %d: Malloc returned live pointer %#x", i, p)
			}
			live[p] = true
			order = append(order, p)
		} else {
			idx := int(rng>>32) % len(order)
			p := order[idx]
			order = append(order[:idx], order[idx+1:]...)
			delete(live, p)
			if v := r.Free(p, rt.PtrMeta{}); v != nil {
				t.Fatalf("iteration %d: Free(%#x): %v", i, p, v)
			}
		}
	}
}

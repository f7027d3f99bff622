package splitmix

import "testing"

// The reference SplitMix64 stream seeded with 0 starts with these draws;
// every deterministic digest in the repository rests on them.
func TestReferenceVectors(t *testing.T) {
	r := Rand{}
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := r.Next(); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestDerivedForms(t *testing.T) {
	var seed, salt uint64 = 42, 7
	if got, want := Derive(seed, salt), Mix(seed^(salt+1)*Golden); got != want {
		t.Fatalf("Derive = %#x, want %#x", got, want)
	}
	r := Rand{State: seed}
	if got, want := r.Next(), Mix(seed); got != want {
		t.Fatalf("Next = %#x, Mix = %#x", got, want)
	}
	if New(0).State != Golden {
		t.Fatalf("New(0) state %#x, want Golden", New(0).State)
	}
	for i := 0; i < 1000; i++ {
		if f := r.Float(); f < 0 || f >= 1 {
			t.Fatalf("Float = %v, outside [0, 1)", f)
		}
		if v := r.RangeIn(3, 5); v < 3 || v > 5 {
			t.Fatalf("RangeIn(3, 5) = %d", v)
		}
	}
}

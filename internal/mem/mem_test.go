package mem

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func newSpace(t *testing.T) *Space {
	t.Helper()
	s, err := NewSpace(47)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	return s
}

func TestNewSpaceWidthValidation(t *testing.T) {
	tests := []struct {
		name    string
		bits    uint
		wantErr bool
	}{
		{name: "x86-64 user width", bits: 47, wantErr: false},
		{name: "arm64 user width", bits: 48, wantErr: false},
		{name: "minimum width", bits: SpanBits, wantErr: false},
		{name: "too narrow", bits: SpanBits - 1, wantErr: true},
		{name: "too wide", bits: 58, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewSpace(tt.bits)
			if gotErr := err != nil; gotErr != tt.wantErr {
				t.Fatalf("NewSpace(%d) error = %v, wantErr %v", tt.bits, err, tt.wantErr)
			}
		})
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	s := newSpace(t)
	tests := []struct {
		name string
		addr uint64
		size int64
		val  uint64
		want uint64
	}{
		{name: "byte", addr: 0x1000, size: 1, val: 0xAB, want: 0xAB},
		{name: "byte truncates", addr: 0x1001, size: 1, val: 0x1FF, want: 0xFF},
		{name: "half word", addr: 0x2000, size: 2, val: 0xBEEF, want: 0xBEEF},
		{name: "word", addr: 0x3000, size: 4, val: 0xDEADBEEF, want: 0xDEADBEEF},
		{name: "double word", addr: 0x4000, size: 8, val: 0x0123456789ABCDEF, want: 0x0123456789ABCDEF},
		{name: "word truncates high bits", addr: 0x5000, size: 4, val: 0xAA_DEADBEEF, want: 0xDEADBEEF},
		{name: "chunk-straddling word", addr: ChunkSize - 2, size: 4, val: 0xCAFEBABE, want: 0xCAFEBABE},
		{name: "chunk-straddling double", addr: 3*ChunkSize - 3, size: 8, val: 0x1122334455667788, want: 0x1122334455667788},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if f := s.Store(tt.addr, tt.size, tt.val); f != nil {
				t.Fatalf("Store: %v", f)
			}
			got, f := s.Load(tt.addr, tt.size)
			if f != nil {
				t.Fatalf("Load: %v", f)
			}
			if got != tt.want {
				t.Fatalf("Load = %#x, want %#x", got, tt.want)
			}
		})
	}
}

func TestLoadIsLittleEndian(t *testing.T) {
	s := newSpace(t)
	if f := s.WriteBytes(0x100, []byte{0x01, 0x02, 0x03, 0x04}); f != nil {
		t.Fatalf("WriteBytes: %v", f)
	}
	got, f := s.Load(0x100, 4)
	if f != nil {
		t.Fatalf("Load: %v", f)
	}
	if want := uint64(0x04030201); got != want {
		t.Fatalf("Load = %#x, want %#x", got, want)
	}
}

func TestUntouchedMemoryReadsZero(t *testing.T) {
	s := newSpace(t)
	got, f := s.Load(0x7FFF_0000, 8)
	if f != nil {
		t.Fatalf("Load: %v", f)
	}
	if got != 0 {
		t.Fatalf("Load of untouched memory = %#x, want 0", got)
	}
}

func TestOutOfSpanAccessesFault(t *testing.T) {
	s := newSpace(t)
	tests := []struct {
		name string
		addr uint64
		size int64
	}{
		{name: "just past span", addr: SpanSize, size: 1},
		{name: "straddles span end", addr: SpanSize - 4, size: 8},
		{name: "tagged pointer dereference", addr: (uint64(3) << 47) | 0x1000, size: 8},
		{name: "high canonical but unmapped", addr: uint64(1) << 46, size: 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, f := s.Load(tt.addr, tt.size); f == nil {
				t.Errorf("Load(%#x) did not fault", tt.addr)
			}
			if f := s.Store(tt.addr, tt.size, 1); f == nil {
				t.Errorf("Store(%#x) did not fault", tt.addr)
			}
			if _, f := s.ReadBytes(tt.addr, tt.size); f == nil {
				t.Errorf("ReadBytes(%#x) did not fault", tt.addr)
			}
			if f := s.WriteBytes(tt.addr, make([]byte, tt.size)); f == nil {
				t.Errorf("WriteBytes(%#x) did not fault", tt.addr)
			}
			if f := s.Set(tt.addr, 0xFF, tt.size); f == nil {
				t.Errorf("Set(%#x) did not fault", tt.addr)
			}
		})
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Addr: 0xABC, Size: 8, Wr: true}
	if got := f.Error(); got == "" {
		t.Fatal("Fault.Error() returned empty string")
	}
	r := &Fault{Addr: 0xABC, Size: 8}
	if f.Error() == r.Error() {
		t.Fatal("read and write faults render identically")
	}
}

func TestCanonical(t *testing.T) {
	s := newSpace(t)
	if !s.Canonical(0x7FFF_FFFF_FFFF) {
		t.Error("47-bit address should be canonical")
	}
	if s.Canonical(uint64(1) << 47) {
		t.Error("bit 47 set should be non-canonical under 47-bit width")
	}
	s48, err := NewSpace(48)
	if err != nil {
		t.Fatalf("NewSpace(48): %v", err)
	}
	if !s48.Canonical(uint64(1) << 47) {
		t.Error("bit 47 set should be canonical under 48-bit width")
	}
}

func TestReadWriteBytes(t *testing.T) {
	s := newSpace(t)
	payload := make([]byte, 3*ChunkSize+17) // force multiple chunk crossings
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	const base = ChunkSize - 9
	if f := s.WriteBytes(base, payload); f != nil {
		t.Fatalf("WriteBytes: %v", f)
	}
	got, f := s.ReadBytes(base, int64(len(payload)))
	if f != nil {
		t.Fatalf("ReadBytes: %v", f)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("ReadBytes payload mismatch after WriteBytes")
	}
}

func TestCopyOverlapping(t *testing.T) {
	s := newSpace(t)
	src := []byte("abcdefghij")
	if f := s.WriteBytes(0x100, src); f != nil {
		t.Fatalf("WriteBytes: %v", f)
	}
	// Overlapping forward copy, memmove semantics.
	if f := s.Copy(0x104, 0x100, 10); f != nil {
		t.Fatalf("Copy: %v", f)
	}
	got, f := s.ReadBytes(0x100, 14)
	if f != nil {
		t.Fatalf("ReadBytes: %v", f)
	}
	if want := "abcdabcdefghij"; string(got) != want {
		t.Fatalf("overlapping copy = %q, want %q", got, want)
	}
}

func TestSetFill(t *testing.T) {
	s := newSpace(t)
	const base = 2*ChunkSize - 100
	const n = 300 // straddles a chunk boundary
	if f := s.Set(base, 0x5A, n); f != nil {
		t.Fatalf("Set: %v", f)
	}
	got, f := s.ReadBytes(base, n)
	if f != nil {
		t.Fatalf("ReadBytes: %v", f)
	}
	for i, b := range got {
		if b != 0x5A {
			t.Fatalf("byte %d = %#x, want 0x5A", i, b)
		}
	}
	// Bytes just outside the fill must be untouched.
	before, _ := s.Load(base-1, 1)
	after, _ := s.Load(base+n, 1)
	if before != 0 || after != 0 {
		t.Fatalf("Set leaked outside range: before=%#x after=%#x", before, after)
	}
}

func TestTouchedBytesTracksChunks(t *testing.T) {
	s := newSpace(t)
	if got := s.TouchedBytes(); got != 0 {
		t.Fatalf("fresh space TouchedBytes = %d, want 0", got)
	}
	s.Store(0, 1, 1)
	if got := s.TouchedBytes(); got != ChunkSize {
		t.Fatalf("TouchedBytes = %d, want %d", got, ChunkSize)
	}
	s.Store(10, 8, 1) // same chunk
	if got := s.TouchedBytes(); got != ChunkSize {
		t.Fatalf("TouchedBytes after same-chunk store = %d, want %d", got, ChunkSize)
	}
	s.Store(5*ChunkSize, 1, 1)
	if got := s.TouchedBytes(); got != 2*ChunkSize {
		t.Fatalf("TouchedBytes = %d, want %d", got, 2*ChunkSize)
	}
	// Loads also materialize (demand paging of zero pages).
	s.Load(9*ChunkSize, 8)
	if got := s.TouchedBytes(); got != 3*ChunkSize {
		t.Fatalf("TouchedBytes after load = %d, want %d", got, 3*ChunkSize)
	}
}

func TestConcurrentMaterialization(t *testing.T) {
	s := newSpace(t)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * 4 * ChunkSize
			for i := 0; i < 1000; i++ {
				addr := base + uint64(i%4)*ChunkSize + uint64((i/4)*8)%(ChunkSize-8)
				if f := s.Store(addr, 8, uint64(w)); f != nil {
					t.Errorf("worker %d Store: %v", w, f)
					return
				}
				if _, f := s.Load(addr, 8); f != nil {
					t.Errorf("worker %d Load: %v", w, f)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := s.TouchedBytes(), int64(workers*4*ChunkSize); got != want {
		t.Fatalf("TouchedBytes = %d, want %d", got, want)
	}
}

// TestLoadStoreProperty checks that for arbitrary (addr, size, value) the
// store/load pair round-trips the value modulo truncation to size bytes.
func TestLoadStoreProperty(t *testing.T) {
	s := newSpace(t)
	sizes := []int64{1, 2, 4, 8}
	prop := func(addrSeed uint32, sizeIdx uint8, val uint64) bool {
		addr := uint64(addrSeed) % (SpanSize - 8)
		size := sizes[int(sizeIdx)%len(sizes)]
		if f := s.Store(addr, size, val); f != nil {
			return false
		}
		got, f := s.Load(addr, size)
		if f != nil {
			return false
		}
		want := val
		if size < 8 {
			want = val & ((uint64(1) << (8 * uint(size))) - 1)
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCopyMatchesGoCopy cross-checks Space.Copy against Go's copy on a
// reference buffer for arbitrary overlapping ranges.
func TestCopyMatchesGoCopy(t *testing.T) {
	prop := func(dstOff, srcOff uint16, n uint8, seed uint64) bool {
		s, err := NewSpace(47)
		if err != nil {
			return false
		}
		const base = 0x1000
		ref := make([]byte, 1<<17)
		rnd := seed
		for i := range ref {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			ref[i] = byte(rnd >> 56)
		}
		if f := s.WriteBytes(base, ref); f != nil {
			return false
		}
		d, sr, ln := int(dstOff), int(srcOff), int(n)
		if f := s.Copy(base+uint64(d), base+uint64(sr), int64(ln)); f != nil {
			return false
		}
		tmp := make([]byte, ln)
		copy(tmp, ref[sr:sr+ln])
		copy(ref[d:d+ln], tmp)
		got, f := s.ReadBytes(base, int64(len(ref)))
		if f != nil {
			return false
		}
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLoad8 is an 8-byte load as the interpreter makes it: the
// fast path, with Load behind it.
func BenchmarkLoad8(b *testing.B) {
	s, _ := NewSpace(47)
	s.Store(0x1000, 8, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.FastLoad8(0x1000); ok {
			continue
		}
		if _, f := s.Load(0x1000, 8); f != nil {
			b.Fatal(f)
		}
	}
}

// BenchmarkStore8 is an 8-byte store as the interpreter makes it.
func BenchmarkStore8(b *testing.B) {
	s, _ := NewSpace(47)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.FastStore8(0x1000, uint64(i)) {
			continue
		}
		if f := s.Store(0x1000, 8, uint64(i)); f != nil {
			b.Fatal(f)
		}
	}
}

func TestSpaceReset(t *testing.T) {
	s := newSpace(t)
	addrs := []uint64{0, ChunkSize - 1, ChunkSize, 5 * ChunkSize, SpanSize - 8}
	for _, a := range addrs {
		if f := s.Store(a, 1, 0xAB); f != nil {
			t.Fatalf("store at %#x: %v", a, f)
		}
	}
	if s.TouchedBytes() == 0 {
		t.Fatal("no pages touched before reset")
	}
	s.Reset()
	if got := s.TouchedBytes(); got != 0 {
		t.Errorf("TouchedBytes after Reset = %d, want 0", got)
	}
	for _, a := range addrs {
		v, f := s.Load(a, 1)
		if f != nil {
			t.Fatalf("load at %#x after reset: %v", a, f)
		}
		if v != 0 {
			t.Errorf("byte at %#x after Reset = %#x, want 0 (stale data leaked)", a, v)
		}
	}
	// A reset space must behave like a fresh one: touching the same pages
	// again yields the same footprint.
	for _, a := range addrs {
		if f := s.Store(a, 1, 0xCD); f != nil {
			t.Fatalf("store at %#x after reset: %v", a, f)
		}
	}
	fresh := newSpace(t)
	for _, a := range addrs {
		if f := fresh.Store(a, 1, 0xCD); f != nil {
			t.Fatalf("store at %#x on fresh space: %v", a, f)
		}
	}
	if s.TouchedBytes() != fresh.TouchedBytes() {
		t.Errorf("TouchedBytes after reuse = %d, fresh = %d", s.TouchedBytes(), fresh.TouchedBytes())
	}
}

// fastLoad and fastStore dispatch on width the way the interpreter does.
func fastLoad(s *Space, addr uint64, size int64) (uint64, bool) {
	switch size {
	case 8:
		return s.FastLoad8(addr)
	case 4:
		return s.FastLoad4(addr)
	case 2:
		return s.FastLoad2(addr)
	case 1:
		return s.FastLoad1(addr)
	}
	return 0, false
}

func fastStore(s *Space, addr uint64, size int64, val uint64) bool {
	switch size {
	case 8:
		return s.FastStore8(addr, val)
	case 4:
		return s.FastStore4(addr, val)
	case 2:
		return s.FastStore2(addr, val)
	case 1:
		return s.FastStore1(addr, val)
	}
	return false
}

// splitLoad and splitStore are the interpreter's access: the fast path,
// and Load or Store where it declines.
func splitLoad(s *Space, addr uint64, size int64) (uint64, *Fault) {
	if v, ok := fastLoad(s, addr, size); ok {
		return v, nil
	}
	return s.Load(addr, size)
}

func splitStore(s *Space, addr uint64, size int64, val uint64) *Fault {
	if fastStore(s, addr, size, val) {
		return nil
	}
	return s.Store(addr, size, val)
}

// TestFastPathMatchesSlowPath runs loads and stores of every width through
// the fast path (with its fallback) on one space and through Load and Store
// alone on another, and requires the same values, the same faults and the
// same contents at the edges the fast path must get right: the last
// in-chunk slot, the first crossing one, the end of the span, tagged
// addresses, a vetoed chunk, and a store above its chunk's dirty mark.
func TestFastPathMatchesSlowPath(t *testing.T) {
	addrs := []struct {
		name string
		addr uint64
	}{
		{"chunk end fits", 3*ChunkSize - 8},
		{"chunk end crosses", 3*ChunkSize - 7},
		{"span end", SpanSize - 8},
		{"past span", SpanSize},
		{"tagged", 0x2A<<56 | 0x1000},
		{"straddles span end", SpanSize - 4},
	}
	for _, size := range []int64{1, 2, 4, 8} {
		for _, a := range addrs {
			fast, slow := newSpace(t), newSpace(t)
			val := uint64(0x8877665544332211)
			// Twice: the first store maps the chunk and raises the mark
			// through Store, the second takes the fast path where it can.
			for round := 0; round < 2; round++ {
				ff, sf := splitStore(fast, a.addr, size, val), slow.Store(a.addr, size, val)
				if !reflect.DeepEqual(ff, sf) {
					t.Fatalf("%s width %d: store fault %v, slow path %v", a.name, size, ff, sf)
				}
				fv, ff := splitLoad(fast, a.addr, size)
				sv, sf := slow.Load(a.addr, size)
				if fv != sv || !reflect.DeepEqual(ff, sf) {
					t.Fatalf("%s width %d: load = (%#x, %v), slow path (%#x, %v)", a.name, size, fv, ff, sv, sf)
				}
				val = ^val
			}
			if fast.TouchedBytes() != slow.TouchedBytes() {
				t.Fatalf("%s width %d: TouchedBytes %d, slow path %d", a.name, size, fast.TouchedBytes(), slow.TouchedBytes())
			}
		}
	}

	// The fast path takes exactly the in-chunk accesses of mapped chunks.
	s := newSpace(t)
	s.Store(3*ChunkSize-8, 8, 1) // maps chunk 2, mark at its end
	if _, ok := s.FastLoad8(3*ChunkSize - 8); !ok {
		t.Error("FastLoad8 declined an in-chunk load")
	}
	if !s.FastStore8(3*ChunkSize-8, 2) {
		t.Error("FastStore8 declined an in-chunk store below the mark")
	}
	if _, ok := s.FastLoad8(3*ChunkSize - 7); ok {
		t.Error("FastLoad8 took a chunk-crossing load")
	}
	if _, ok := s.FastLoad8(SpanSize); ok {
		t.Error("FastLoad8 took an address past the span")
	}
	if _, ok := s.FastLoad1(5 * ChunkSize); ok {
		t.Error("FastLoad1 took a load from an unmapped chunk")
	}
}

// TestFastPathVetoedChunk checks that a first touch through the fast path
// consults the fault hook exactly once, as Load and Store do, and gets the
// same injected fault.
func TestFastPathVetoedChunk(t *testing.T) {
	const addr = 7*ChunkSize + 16
	for _, size := range []int64{1, 2, 4, 8} {
		fast, slow := newSpace(t), newSpace(t)
		var fastCalls, slowCalls int
		fast.SetFaultHook(func() bool { fastCalls++; return true })
		slow.SetFaultHook(func() bool { slowCalls++; return true })

		ff, sf := splitStore(fast, addr, size, 1), slow.Store(addr, size, 1)
		if ff == nil || !ff.Injected || !reflect.DeepEqual(ff, sf) {
			t.Fatalf("width %d: store fault %v, slow path %v; want the same injected fault", size, ff, sf)
		}
		_, ff = splitLoad(fast, addr, size)
		_, sf = slow.Load(addr, size)
		if ff == nil || !ff.Injected || !reflect.DeepEqual(ff, sf) {
			t.Fatalf("width %d: load fault %v, slow path %v; want the same injected fault", size, ff, sf)
		}
		if fastCalls != 2 || slowCalls != 2 {
			t.Fatalf("width %d: hook consulted %d times through the fast path, %d through the slow path; want 2 each", size, fastCalls, slowCalls)
		}
	}
}

// TestStoreAboveDirtyMark checks that a store above its chunk's dirty mark
// falls back to Store, which raises the mark in whole granules, and that
// Reset then zeroes what it wrote.
func TestStoreAboveDirtyMark(t *testing.T) {
	s := newSpace(t)
	const base = 4 * ChunkSize
	if f := s.Store(base, 8, 1); f != nil { // maps the chunk, mark 256
		t.Fatal(f)
	}
	if got := s.store.dirtyHi[4].Load(); got != dirtyGranule {
		t.Fatalf("mark after an 8-byte store at offset 0 = %d, want %d", got, dirtyGranule)
	}
	const hi = base + 3*dirtyGranule + 5
	if s.FastStore4(hi, 0xDEADBEEF) {
		t.Fatal("FastStore4 took a store above the dirty mark")
	}
	if f := splitStore(s, hi, 4, 0xDEADBEEF); f != nil {
		t.Fatal(f)
	}
	if got := s.store.dirtyHi[4].Load(); got != 4*dirtyGranule {
		t.Fatalf("mark after a store ending at offset %d = %d, want %d", hi+4-base, got, 4*dirtyGranule)
	}
	if !s.FastStore4(hi, 0xCAFEBABE) {
		t.Fatal("FastStore4 declined a store the raised mark covers")
	}
	if v, f := splitLoad(s, hi, 4); f != nil || v != 0xCAFEBABE {
		t.Fatalf("load = (%#x, %v), want 0xCAFEBABE", v, f)
	}
	if f := s.Store(base+ChunkSize-1, 1, 7); f != nil {
		t.Fatal(f)
	}
	if got := s.store.dirtyHi[4].Load(); got != ChunkSize {
		t.Fatalf("mark after a store to the chunk's last byte = %d, want %d", got, ChunkSize)
	}
	s.Reset()
	// The chunk comes back from the spare list: Reset must have zeroed it.
	got, f := s.ReadBytes(base, ChunkSize)
	if f != nil || !bytes.Equal(got, make([]byte, ChunkSize)) {
		t.Fatalf("chunk not zero after Reset (fault %v)", f)
	}
}

// scanZeroByLoads is the element-at-a-time loop ScanZero replaces: the
// reference it must match.
func scanZeroByLoads(s *Space, addr uint64, width int64) int64 {
	var n int64
	for {
		v, f := s.Load(addr+uint64(n*width), width)
		if f != nil || v == 0 {
			return n
		}
		n++
	}
}

// TestScanZeroMatchesLoads runs ScanZero and the element-at-a-time loop on
// two identically prepared spaces and requires the same count, the same
// chunks materialized in the same order and the same fault-hook calls.
// Strings start and end around chunk boundaries, run to the span's end, and
// run into an unmapped chunk that the hook either maps (it reads as zero) or
// vetoes.
func TestScanZeroMatchesLoads(t *testing.T) {
	type scan struct {
		start uint64 // first byte of the string
		fill  int64  // nonzero bytes written from start
		allow int    // hook calls that map a chunk before one is vetoed; -1: no hook
	}
	var cases []scan
	for _, edge := range []uint64{3 * ChunkSize, SpanSize} {
		for back := uint64(1); back <= 9; back++ {
			for _, fill := range []int64{0, 1, 3, 4, 5, int64(back) - 1, int64(back), int64(back) + 1, int64(back) + 7} {
				if edge == SpanSize && uint64(fill) > back {
					continue
				}
				for _, allow := range []int{-1, 0, 1} {
					cases = append(cases, scan{edge - back, fill, allow})
				}
			}
		}
	}
	// Strings that fill their chunk up to its end, so the scan walks into
	// the next, unmapped chunk, starting at both alignments.
	for _, start := range []uint64{5*ChunkSize + 4, 5*ChunkSize + 6} {
		for _, allow := range []int{-1, 0, 1} {
			cases = append(cases, scan{start, int64(6*ChunkSize - start), allow})
		}
	}
	cases = append(cases, scan{SpanSize, 0, -1}, scan{0x2A<<56 | 0x1000, 0, -1})

	// A byte string is all 0x41; a wide one repeats 00 00 41 00, so each
	// element has zero bytes but is not zero.
	prepare := func(c scan, width int64) (*Space, *int) {
		s := newSpace(t)
		if c.start < SpanSize && c.fill > 0 {
			unit := []byte{0x41}
			if width == 4 {
				unit = []byte{0, 0, 0x41, 0}
			}
			b := bytes.Repeat(unit, int(c.fill))[:c.fill]
			if f := s.WriteBytes(c.start, b); f != nil {
				t.Fatalf("prepare %+v: %v", c, f)
			}
		}
		calls := new(int)
		if c.allow >= 0 {
			s.SetFaultHook(func() bool { *calls++; return *calls > c.allow })
		}
		return s, calls
	}
	for _, c := range cases {
		for _, width := range []int64{1, 4} {
			got, gotCalls := prepare(c, width)
			want, wantCalls := prepare(c, width)
			n, wn := got.ScanZero(c.start, width), scanZeroByLoads(want, c.start, width)
			if n != wn {
				t.Fatalf("%+v width %d: ScanZero = %d, element loads give %d", c, width, n, wn)
			}
			if *gotCalls != *wantCalls {
				t.Fatalf("%+v width %d: fault hook called %d times, element loads call it %d times", c, width, *gotCalls, *wantCalls)
			}
			if !reflect.DeepEqual(got.store.touchedIdx, want.store.touchedIdx) {
				t.Fatalf("%+v width %d: chunks materialized %v, element loads materialize %v", c, width, got.store.touchedIdx, want.store.touchedIdx)
			}
		}
	}
}

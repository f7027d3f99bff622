package prog

import (
	"bytes"
	"hash/fnv"
	"reflect"
	"testing"
	"unsafe"
)

// buildOverflow builds a small program; off parameterizes the store offset
// so tests can produce structurally distinct variants.
func buildOverflow(t *testing.T, off int64) *Program {
	t.Helper()
	pb := NewProgram()
	pb.GlobalBytes("g_msg", []byte("hello"))
	f := pb.Function("main", 0)
	buf := f.MallocBytes(16)
	f.Store(buf, off, f.Const(1), Char())
	f.Free(buf)
	f.RetVoid()
	return pb.MustBuild()
}

func TestFingerprintStable(t *testing.T) {
	a := buildOverflow(t, 8)
	b := buildOverflow(t, 8)
	if a == b {
		t.Fatal("expected two independent builds")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("structurally identical programs hash differently:\n%s\n%s",
			a.Fingerprint(), b.Fingerprint())
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Error("fingerprint not deterministic across calls")
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	base := buildOverflow(t, 8)
	if buildOverflow(t, 16).Fingerprint() == base.Fingerprint() {
		t.Error("offset change not reflected in fingerprint")
	}

	// Same layout, different global initializer bytes.
	pb := NewProgram()
	pb.GlobalBytes("g_msg", []byte("hellO"))
	f := pb.Function("main", 0)
	buf := f.MallocBytes(16)
	f.Store(buf, 8, f.Const(1), Char())
	f.Free(buf)
	f.RetVoid()
	if pb.MustBuild().Fingerprint() == base.Fingerprint() {
		t.Error("global initializer change not reflected in fingerprint")
	}
}

func TestFingerprintTypeStructure(t *testing.T) {
	// Two struct types with the same name but different field layouts must
	// hash differently (names are not trusted as identities).
	build := func(st *Type) *Program {
		pb := NewProgram()
		f := pb.Function("main", 0)
		obj := f.Alloca(st)
		f.Store(obj, 0, f.Const(1), Char())
		f.RetVoid()
		return pb.MustBuild()
	}
	a := build(StructOf("S", FieldSpec{Name: "a", Type: ArrayOf(Char(), 8)}, FieldSpec{Name: "b", Type: Int64T()}))
	b := build(StructOf("S", FieldSpec{Name: "a", Type: ArrayOf(Char(), 16)}, FieldSpec{Name: "b", Type: Int64T()}))
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("struct layout change behind the same name not reflected in fingerprint")
	}
}

// TestInstrSize pins the packed instruction layout: Flags shares the first
// word with Op, X and Dst, and the two side-table indices share one. Fingerprints
// write each field explicitly, so the layout does not reach them.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 48 {
		t.Errorf("unsafe.Sizeof(Instr{}) = %d, want 48", got)
	}
}

// TestFuncSize pins a function's header at 128 bytes: its name, register
// counts and four slices, and no per-function index beside them.
func TestFuncSize(t *testing.T) {
	if got := unsafe.Sizeof(Func{}); got != 128 {
		t.Errorf("unsafe.Sizeof(Func{}) = %d, want 128", got)
	}
}

// TestProgramHasNoMaps pins that a program and its functions hold no map,
// at any depth short of a pointer: a map costs a header and a slot group
// per program, and the functions' definition-ordered slice already holds
// what a name index would.
func TestProgramHasNoMaps(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(Program{}), reflect.TypeOf(Func{})} {
		for i := range typ.NumField() {
			if f := typ.Field(i); holdsMap(f.Type) {
				t.Errorf("%s.%s is a %s, which holds a map", typ.Name(), f.Name, f.Type)
			}
		}
	}
}

// holdsMap reports whether values of t hold a map inline or in a slice.
func holdsMap(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Map:
		return true
	case reflect.Array, reflect.Slice:
		return holdsMap(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if holdsMap(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestInstrHasNoPointers pins that an instruction holds nothing the
// collector must scan: code slices are then pointer-free memory, and
// symbols, types and argument lists stay in the functions' side tables.
func TestInstrHasNoPointers(t *testing.T) {
	typ := reflect.TypeOf(Instr{})
	for i := range typ.NumField() {
		if f := typ.Field(i); !pointerFree(f.Type) {
			t.Errorf("Instr.%s is a %s, which holds a pointer the collector scans", f.Name, f.Type)
		}
	}
}

// pointerFree reports whether values of t hold no pointer: no pointer,
// string, slice, map, interface, func or chan, at any depth.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
		reflect.Interface, reflect.Func, reflect.Chan:
		return false
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
	}
	return true
}

// TestFNV128aMatchesStdlib pins the in-register FNV-1a against hash/fnv's
// New128a on inputs of every length up to 300 bytes, so fingerprints stay
// what streaming the same bytes through the standard hash gives.
func TestFNV128aMatchesStdlib(t *testing.T) {
	b := make([]byte, 300)
	for i := range b {
		b[i] = byte(i*131 + 7)
	}
	for n := 0; n <= len(b); n++ {
		h := fnv.New128a()
		h.Write(b[:n])
		if got, want := fnv128a(b[:n]), h.Sum(nil); !bytes.Equal(got[:], want) {
			t.Fatalf("%d bytes: %x, hash/fnv %x", n, got, want)
		}
	}
}

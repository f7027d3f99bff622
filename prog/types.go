// Package prog defines the C-like intermediate representation that plays the
// role of "a compiled C/C++ program" in this reproduction of CECSan.
//
// Real CECSan instruments LLVM IR at link time. Go cannot host LLVM, so this
// package provides the minimal IR that preserves everything the paper's
// instrumentation cares about:
//
//   - object lifetimes (alloca/malloc/free, function scopes, globals),
//   - pointer derivation with static type information (GEP with struct and
//     array types, the input to sub-object bounds narrowing, §II.D),
//   - statically analyzable loops (the builder records the scalar-evolution
//     facts LLVM's SCEV would derive, enabling the §II.F.1 loop check
//     optimizations),
//   - calls into external, uninstrumented code (§II.E),
//   - libc-style bulk memory functions and external input sources.
//
// Programs are built with Builder, validated, then instrumented (see
// internal/instrument) and executed on the machine (internal/interp).
package prog

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind classifies a Type.
type Kind uint8

// Type kinds. They start at 1 so the zero value is recognizably invalid.
const (
	KindInt Kind = iota + 1
	KindPtr
	KindArray
	KindStruct
)

// Type is a C type. Types are immutable once created; scalar types are
// shared singletons.
type Type struct {
	kind   Kind
	size   int64
	align  int64
	name   string
	elem   *Type // array element or pointee (may be nil for void*)
	length int64 // array length
	fields []Field
}

// Field is one member of a struct type, with its computed byte offset.
type Field struct {
	Name   string
	Type   *Type
	Offset int64
}

var (
	typeInt8  = &Type{kind: KindInt, size: 1, align: 1, name: "char"}
	typeInt16 = &Type{kind: KindInt, size: 2, align: 2, name: "short"}
	typeInt32 = &Type{kind: KindInt, size: 4, align: 4, name: "int"}
	typeInt64 = &Type{kind: KindInt, size: 8, align: 8, name: "int64"}
	typeWChar = &Type{kind: KindInt, size: 4, align: 4, name: "wchar_t"}
	typeVoidP = &Type{kind: KindPtr, size: 8, align: 8, name: "void*"}
)

// Char returns the 1-byte integer type.
func Char() *Type { return typeInt8 }

// Short returns the 2-byte integer type.
func Short() *Type { return typeInt16 }

// Int returns the 4-byte integer type.
func Int() *Type { return typeInt32 }

// Int64T returns the 8-byte integer type.
func Int64T() *Type { return typeInt64 }

// WChar returns the 4-byte wide-character type (Linux wchar_t).
func WChar() *Type { return typeWChar }

// VoidPtr returns the untyped 8-byte pointer type. Per §II.F.2, the
// type-based check-removal optimization never applies to it.
func VoidPtr() *Type { return typeVoidP }

// PtrTo returns a typed 8-byte pointer to elem.
func PtrTo(elem *Type) *Type {
	return &Type{kind: KindPtr, size: 8, align: 8, name: elem.name + "*", elem: elem}
}

// ArrayOf returns the type of an n-element array of elem. n must be positive.
func ArrayOf(elem *Type, n int64) *Type {
	if n <= 0 {
		panic(fmt.Sprintf("prog: ArrayOf length %d must be positive", n))
	}
	return &Type{
		kind:   KindArray,
		size:   elem.size * n,
		align:  elem.align,
		name:   elem.name + "[" + strconv.FormatInt(n, 10) + "]",
		elem:   elem,
		length: n,
	}
}

// FieldSpec names a struct member for StructOf.
type FieldSpec struct {
	Name string
	Type *Type
}

// StructOf returns a struct type with naturally aligned fields (each field
// at the next multiple of its alignment; total size padded to the struct's
// alignment), matching the x86-64 SysV layout for these kinds.
func StructOf(name string, fields ...FieldSpec) *Type {
	if len(fields) == 0 {
		panic("prog: StructOf requires at least one field")
	}
	t := &Type{kind: KindStruct, name: name}
	var off, maxAlign int64
	maxAlign = 1
	seen := make(map[string]bool, len(fields))
	for _, fs := range fields {
		if seen[fs.Name] {
			panic(fmt.Sprintf("prog: struct %s: duplicate field %q", name, fs.Name))
		}
		seen[fs.Name] = true
		a := fs.Type.align
		off = (off + a - 1) &^ (a - 1)
		t.fields = append(t.fields, Field{Name: fs.Name, Type: fs.Type, Offset: off})
		off += fs.Type.size
		if a > maxAlign {
			maxAlign = a
		}
	}
	t.align = maxAlign
	t.size = (off + maxAlign - 1) &^ (maxAlign - 1)
	return t
}

// Kind returns the type's kind.
func (t *Type) Kind() Kind { return t.kind }

// Size returns the type's size in bytes.
func (t *Type) Size() int64 { return t.size }

// Align returns the type's alignment in bytes.
func (t *Type) Align() int64 { return t.align }

// Name returns the type's C-ish spelling.
func (t *Type) Name() string { return t.name }

// Elem returns the array element or pointee type (nil for void* and
// non-containers).
func (t *Type) Elem() *Type { return t.elem }

// Len returns the array length (0 for non-arrays).
func (t *Type) Len() int64 { return t.length }

// Fields returns the struct fields (nil for non-structs). The returned slice
// must not be modified.
func (t *Type) Fields() []Field { return t.fields }

// FieldByName returns the named struct field.
func (t *Type) FieldByName(name string) (Field, bool) {
	for _, f := range t.fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// IsComposite reports whether the type is an aggregate (array or struct).
// Per §II.F.2, only composite objects participate in pointer arithmetic
// worth tracking.
func (t *Type) IsComposite() bool { return t.kind == KindArray || t.kind == KindStruct }

// String returns the type's spelling.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	return t.name
}

// SubObject describes one addressable sub-object (field or nested field)
// within a composite type, as enumerated by SubObjects.
type SubObject struct {
	Path   string // dotted field path, e.g. "hdr.name"
	Offset int64
	Type   *Type
}

// SubObjects recursively enumerates the sub-objects of a composite type, the
// candidates §II.D narrows bounds for. Scalars yield nothing.
func (t *Type) SubObjects() []SubObject {
	var out []SubObject
	var walk func(prefix string, base int64, ty *Type)
	walk = func(prefix string, base int64, ty *Type) {
		for _, f := range ty.fields {
			path := f.Name
			if prefix != "" {
				path = prefix + "." + f.Name
			}
			out = append(out, SubObject{Path: path, Offset: base + f.Offset, Type: f.Type})
			if f.Type.kind == KindStruct {
				walk(path, base+f.Offset, f.Type)
			}
		}
	}
	if t.kind == KindStruct {
		walk("", 0, t)
	}
	return out
}

// layoutString renders a struct layout for debugging.
func (t *Type) layoutString() string {
	if t.kind != KindStruct {
		return t.name
	}
	var b strings.Builder
	fmt.Fprintf(&b, "struct %s { // size=%d align=%d\n", t.name, t.size, t.align)
	for _, f := range t.fields {
		fmt.Fprintf(&b, "  +%-4d %s %s\n", f.Offset, f.Type, f.Name)
	}
	b.WriteString("}")
	return b.String()
}

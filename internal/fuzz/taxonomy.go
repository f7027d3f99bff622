package fuzz

import (
	"fmt"

	"cecsan/internal/rt"
)

// bugShape is one entry in the injection taxonomy: a predicate deciding
// which objects it can target and a builder producing the buggy op plus the
// oracle attributes the expectation models consume.
//
// The taxonomy (see DESIGN.md for the expectation matrix):
//
//	spatial      oob_store oob_load oob_underflow oob_loop oob_far_stride
//	             oob_memcpy oob_memset oob_strcpy oob_strncpy oob_wmemset
//	             oob_wcsncpy oob_input
//	subobject    subobj_store subobj_memcpy
//	temporal     uaf_store uaf_load uaf_memcpy uaf_memset uaf_wide
//	             uaf_reloaded uaf_quarantine_flush uaf_realloc_grow
//	             uaf_realloc_alias uaf_realloc_reuse double_free
//	             double_free_alias
//	invalidfree  invfree_interior invfree_stack invfree_global
//	external     extern_oob
type bugShape struct {
	name    string
	class   string
	atEnd   bool // temporal/invalid-free ops run after all benign ops
	applies func(g *genState, oi int) bool
	build   func(g *genState, oi int) (*op, Oracle)
}

func plain(g *genState, oi int) bool { return !g.obj(oi).isStruct() }
func plainChar(g *genState, oi int) bool {
	o := g.obj(oi)
	return !o.isStruct() && o.elem == "char"
}
func heapPlain(g *genState, oi int) bool {
	o := g.obj(oi)
	return !o.isStruct() && o.seg == "heap"
}
func isStruct(g *genState, oi int) bool { return g.obj(oi).isStruct() }

// lastHeap reports whether oi is the most recently allocated heap object,
// so that a far stride beyond it lands in virgin heap (no other chunk's
// redzone or tag granules), keeping the expectation models deterministic.
func lastHeap(g *genState, oi int) bool {
	if g.obj(oi).seg != "heap" {
		return false
	}
	for j := oi + 1; j < len(g.objects); j++ {
		if g.objects[j].seg == "heap" {
			return false
		}
	}
	return true
}

var shapes = []bugShape{
	{name: "oob_store", class: ClassSpatial, applies: plain,
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			dd := int64(g.r.RangeIn(0, 2))
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("%s[%d] = 7;", o.name, o.count+dd)}},
				Oracle{Kind: rt.KindOOBWrite,
					OffStart: (o.count + dd) * o.es, OffEnd: (o.count+dd)*o.es + o.es}
		}},
	{name: "oob_load", class: ClassSpatial, applies: plain,
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			dd := int64(g.r.RangeIn(0, 2))
			v := g.fresh("v")
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("var %s = %s[%d];", v, o.name, o.count+dd),
					fmt.Sprintf("print_int(%s);", v)}},
				Oracle{Kind: rt.KindOOBRead,
					OffStart: (o.count + dd) * o.es, OffEnd: (o.count+dd)*o.es + o.es}
		}},
	// Underflow stays off globals: ASan's model only places right redzones
	// on globals, so the left-neighbour shadow is layout-dependent there.
	{name: "oob_underflow", class: ClassSpatial,
		applies: func(g *genState, oi int) bool {
			o := g.obj(oi)
			return !o.isStruct() && o.seg != "global"
		},
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			v := g.fresh("v")
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("var %s = 0 - 1;", v),
					fmt.Sprintf("%s[%s] = 9;", o.name, v)}},
				Oracle{Kind: rt.KindOOBWrite, Underflow: true, OffStart: -o.es, OffEnd: 0}
		}},
	{name: "oob_loop", class: ClassSpatial, applies: plain,
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			dd := int64(g.r.RangeIn(1, 2))
			i := g.fresh("i")
			return &op{uses: []int{oi}, lines: []string{fmt.Sprintf(
					"for (%s = 0; %s < %d; %s += 1) { %s[%s] = 5; }",
					i, i, o.count+dd, i, o.name, i)}},
				Oracle{Kind: rt.KindOOBWrite,
					OffStart: o.count * o.es, OffEnd: (o.count + dd) * o.es}
		}},
	{name: "oob_far_stride", class: ClassSpatial,
		applies: func(g *genState, oi int) bool {
			return plainChar(g, oi) && lastHeap(g, oi)
		},
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("%s[%d] = 7;", o.name, o.bytes()+512)}},
				Oracle{Kind: rt.KindOOBWrite, FarStride: true,
					OffStart: o.bytes() + 512, OffEnd: o.bytes() + 513}
		}},
	{name: "oob_memcpy", class: ClassSpatial, applies: plain,
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			n := o.bytes() + int64(g.r.RangeIn(1, 8))
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("memcpy(%s, %s, %d);", o.name, gSrcName, n)}},
				Oracle{Kind: rt.KindOOBWrite, Libc: "memcpy", OffStart: o.bytes(), OffEnd: n}
		}},
	{name: "oob_memset", class: ClassSpatial, applies: plain,
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			n := o.bytes() + int64(g.r.RangeIn(1, 8))
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("memset(%s, 1, %d);", o.name, n)}},
				Oracle{Kind: rt.KindOOBWrite, Libc: "memset", OffStart: o.bytes(), OffEnd: n}
		}},
	{name: "oob_strcpy", class: ClassSpatial,
		applies: func(g *genState, oi int) bool {
			return plainChar(g, oi) && g.obj(oi).bytes() <= 56
		},
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi) // GLONG is 64 chars; strcpy writes 65 bytes
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("strcpy(%s, %s);", o.name, gLongName)}},
				Oracle{Kind: rt.KindOOBWrite, Libc: "strcpy",
					OffStart: o.bytes(), OffEnd: int64(len(gLongValue)) + 1}
		}},
	{name: "oob_strncpy", class: ClassSpatial, applies: plainChar,
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			n := o.bytes() + int64(g.r.RangeIn(1, 8))
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("strncpy(%s, %s, %d);", o.name, gSrcName, n)}},
				Oracle{Kind: rt.KindOOBWrite, Libc: "strncpy", OffStart: o.bytes(), OffEnd: n}
		}},
	{name: "oob_wmemset", class: ClassSpatial,
		applies: func(g *genState, oi int) bool { return g.obj(oi).wideOK() },
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			n := o.bytes()/4 + int64(g.r.RangeIn(1, 4))
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("wmemset(%s, 3, %d);", o.name, n)}},
				Oracle{Kind: rt.KindOOBWrite, Libc: "wmemset", Wide: true,
					OffStart: o.bytes(), OffEnd: 4 * n}
		}},
	{name: "oob_wcsncpy", class: ClassSpatial,
		applies: func(g *genState, oi int) bool {
			o := g.obj(oi) // n must stay within WSRC's 16 elements
			return o.wideOK() && o.bytes() <= 48
		},
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			n := o.bytes()/4 + int64(g.r.RangeIn(1, 4))
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("wcsncpy(%s, %s, %d);", o.name, gWideName, n)}},
				Oracle{Kind: rt.KindOOBWrite, Libc: "wcsncpy", Wide: true,
					OffStart: o.bytes(), OffEnd: 4 * n}
		}},
	{name: "oob_input", class: ClassSpatial,
		applies: func(g *genState, oi int) bool {
			o := g.obj(oi)
			return !o.isStruct() && o.count+2 < 250
		},
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			dd := int64(g.r.RangeIn(0, 2))
			rb, k := g.fresh("rb"), g.fresh("k")
			return &op{uses: []int{oi}, inputs: [][]byte{{byte(o.count + dd)}},
					lines: []string{
						fmt.Sprintf("var %s = local char[8];", rb),
						fmt.Sprintf("recv(%s, 8);", rb),
						fmt.Sprintf("var %s = %s[0];", k, rb),
						fmt.Sprintf("%s[%s] = 3;", o.name, k)}},
				Oracle{Kind: rt.KindOOBWrite, InputDriven: true,
					OffStart: (o.count + dd) * o.es, OffEnd: (o.count+dd)*o.es + o.es}
		}},

	// Sub-object overflows stay inside the struct (the tail fields absorb
	// them), so only bounds-narrowing sanitizers can see them.
	{name: "subobj_store", class: ClassSubObject, applies: isStruct,
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			dd := int64(g.r.RangeIn(0, 7))
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("%s->buf[%d] = 1;", o.name, o.structBuf+dd)}},
				Oracle{Kind: rt.KindSubObjectOverflow, SubObject: true,
					OffStart: o.structBuf + dd, OffEnd: o.structBuf + dd + 1, ObjBytes: o.structBuf}
		}},
	{name: "subobj_memcpy", class: ClassSubObject, applies: isStruct,
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			n := o.structBuf + int64(g.r.RangeIn(1, 8))
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("memcpy(%s->buf, %s, %d);", o.name, gSrcName, n)}},
				Oracle{Kind: rt.KindSubObjectOverflow, SubObject: true, Libc: "memcpy",
					OffStart: o.structBuf, OffEnd: n, ObjBytes: o.structBuf}
		}},

	{name: "uaf_store", class: ClassTemporal, atEnd: true, applies: heapPlain,
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			o.freedByBug = true
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("free(%s);", o.name),
					fmt.Sprintf("%s[%d] = 5;", o.name, g.r.Intn(int(o.bytes())))}},
				Oracle{Kind: rt.KindUseAfterFree}
		}},
	{name: "uaf_load", class: ClassTemporal, atEnd: true, applies: heapPlain,
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			o.freedByBug = true
			v := g.fresh("v")
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("free(%s);", o.name),
					fmt.Sprintf("var %s = %s[%d];", v, o.name, g.r.Intn(int(o.bytes()))),
					fmt.Sprintf("print_int(%s);", v)}},
				Oracle{Kind: rt.KindUseAfterFree}
		}},
	{name: "uaf_memcpy", class: ClassTemporal, atEnd: true, applies: heapPlain,
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			o.freedByBug = true
			n := 1 + g.r.Intn(int(o.bytes()))
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("free(%s);", o.name),
					fmt.Sprintf("memcpy(%s, %s, %d);", o.name, gSrcName, n)}},
				Oracle{Kind: rt.KindUseAfterFree, Libc: "memcpy"}
		}},
	{name: "uaf_memset", class: ClassTemporal, atEnd: true, applies: heapPlain,
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			o.freedByBug = true
			n := 1 + g.r.Intn(int(o.bytes()))
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("free(%s);", o.name),
					fmt.Sprintf("memset(%s, 0, %d);", o.name, n)}},
				Oracle{Kind: rt.KindUseAfterFree, Libc: "memset"}
		}},
	{name: "uaf_wide", class: ClassTemporal, atEnd: true,
		applies: func(g *genState, oi int) bool {
			o := g.obj(oi)
			return o.seg == "heap" && o.wideOK()
		},
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			o.freedByBug = true
			n := 1 + g.r.Intn(int(o.bytes()/4))
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("free(%s);", o.name),
					fmt.Sprintf("wmemset(%s, 1, %d);", o.name, n)}},
				Oracle{Kind: rt.KindUseAfterFree, Libc: "wmemset", Wide: true}
		}},
	// The pointer round-trips through memory: SoftBound/CETS's shadow
	// propagation drops the key+lock there (spatial bounds survive).
	{name: "uaf_reloaded", class: ClassTemporal, atEnd: true, applies: heapPlain,
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			o.freedByBug = true
			q := g.fresh("q")
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("%s = %s;", gCellName, o.name),
					fmt.Sprintf("free(%s);", o.name),
					fmt.Sprintf("var %s = %s;", q, gCellName),
					fmt.Sprintf("%s[%d] = 2;", q, g.r.Intn(int(o.bytes())))}},
				Oracle{Kind: rt.KindUseAfterFree, Reloaded: true}
		}},
	// Enough churn to evict the chunk from ASan's 2 MiB quarantine, then a
	// same-size malloc recycles the memory before the stale access. The
	// recycling also defeats the CECSan family: the same-size allocation
	// reuses both the chunk address (LIFO size classes) and the freed
	// metadata-table index, rebuilding an entry that validates the stale
	// tagged pointer — the tag-reuse window every allocation-indexed
	// design carries, surfaced by this fuzzer (see ROADMAP Open items).
	{name: "uaf_quarantine_flush", class: ClassTemporal, atEnd: true, applies: heapPlain,
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			o.freedByBug = true
			i, t, u := g.fresh("i"), g.fresh("t"), g.fresh("u")
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("free(%s);", o.name),
					fmt.Sprintf("for (%s = 0; %s < 24; %s += 1) { var %s = malloc(131072); free(%s); }",
						i, i, i, t, t),
					fmt.Sprintf("var %s = malloc(%d);", u, o.bytes()),
					fmt.Sprintf("%s[%d] = 3;", o.name, g.r.Intn(int(o.bytes())))}},
				Oracle{Kind: rt.KindUseAfterFree, Reuse: true}
		}},
	// realloc-lifetime temporal shapes: the old chunk's lifetime ends inside
	// realloc (this allocator's realloc always moves), so the pre-realloc
	// pointer and its aliases dangle the moment the call returns.
	{name: "uaf_realloc_grow", class: ClassTemporal, atEnd: true, applies: heapPlain,
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			o.freedByBug = true
			q := g.fresh("q")
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("var %s = realloc(%s, %d);", q, o.name, 2*o.bytes()),
					fmt.Sprintf("%s[%d] = 5;", o.name, g.r.Intn(int(o.bytes())))}},
				Oracle{Kind: rt.KindUseAfterFree}
		}},
	{name: "uaf_realloc_alias", class: ClassTemporal, atEnd: true, applies: heapPlain,
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			o.freedByBug = true
			a, q := g.fresh("a"), g.fresh("q")
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("var %s = %s;", a, o.name),
					fmt.Sprintf("var %s = realloc(%s, %d);", q, o.name, o.bytes()+16),
					fmt.Sprintf("%s[%d] = 7;", a, g.r.Intn(int(o.bytes())))}},
				Oracle{Kind: rt.KindUseAfterFree}
		}},
	// The same-size variant reopens the tag-reuse window without ASan-scale
	// churn: realloc frees the old chunk to its LIFO size class and a
	// same-size malloc immediately reoccupies both the address and (for the
	// CECSan family) the freed metadata-table index — but the old chunk
	// never left ASan's quarantine, so its shadow is still poisoned.
	{name: "uaf_realloc_reuse", class: ClassTemporal, atEnd: true, applies: heapPlain,
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			o.freedByBug = true
			q, u := g.fresh("q"), g.fresh("u")
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("var %s = realloc(%s, %d);", q, o.name, o.bytes()),
					fmt.Sprintf("var %s = malloc(%d);", u, o.bytes()),
					fmt.Sprintf("%s[%d] = 3;", o.name, g.r.Intn(int(o.bytes())))}},
				Oracle{Kind: rt.KindUseAfterFree, IndexReuse: true}
		}},
	{name: "double_free", class: ClassTemporal, atEnd: true,
		applies: func(g *genState, oi int) bool { return g.obj(oi).seg == "heap" },
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			o.freedByBug = true
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("free(%s);", o.name),
					fmt.Sprintf("free(%s);", o.name)}},
				Oracle{Kind: rt.KindDoubleFree}
		}},
	{name: "double_free_alias", class: ClassTemporal, atEnd: true,
		applies: func(g *genState, oi int) bool { return g.obj(oi).seg == "heap" },
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			o.freedByBug = true
			a := g.fresh("a")
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("var %s = %s;", a, o.name),
					fmt.Sprintf("free(%s);", a),
					fmt.Sprintf("free(%s);", o.name)}},
				Oracle{Kind: rt.KindDoubleFree}
		}},

	// The interior free is silently ignored by the stock allocator, so the
	// object stays live and the epilogue free remains valid (for the tools
	// that let execution continue).
	{name: "invfree_interior", class: ClassInvalidFree, atEnd: true,
		applies: func(g *genState, oi int) bool {
			return heapPlain(g, oi) && g.obj(oi).bytes() >= 32
		},
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("free(%s + 16);", o.name)}},
				Oracle{Kind: rt.KindInvalidFree}
		}},
	{name: "invfree_stack", class: ClassInvalidFree, atEnd: true,
		applies: func(g *genState, oi int) bool { return g.obj(oi).seg == "stack" },
		build: func(g *genState, oi int) (*op, Oracle) {
			return &op{uses: []int{oi}, lines: []string{
				fmt.Sprintf("free(%s);", g.obj(oi).name)}}, Oracle{Kind: rt.KindInvalidFree}
		}},
	{name: "invfree_global", class: ClassInvalidFree, atEnd: true,
		applies: func(g *genState, oi int) bool { return g.obj(oi).seg == "global" },
		build: func(g *genState, oi int) (*op, Oracle) {
			return &op{uses: []int{oi}, lines: []string{
				fmt.Sprintf("free(%s);", g.obj(oi).name)}}, Oracle{Kind: rt.KindInvalidFree}
		}},

	// The OOB access happens through a pointer that round-tripped through
	// uninstrumented code via the §II.E returns-own-argument wrapper
	// (`externret`), which re-applies the stripped tag bits on return for
	// every tagging tool — but cannot restore SoftBound's per-pointer
	// metadata, which does not survive the boundary. (A plain `extern`
	// return is adopted unchecked under CECSan's reserved entry 0 — full
	// functionality, no protection — so it is deliberately NOT a taxonomy
	// shape: it sits outside the paper's protection claim.)
	{name: "extern_oob", class: ClassExternal, applies: plainChar,
		build: func(g *genState, oi int) (*op, Oracle) {
			o := g.obj(oi)
			dd := int64(g.r.RangeIn(0, 2))
			x := g.fresh("x")
			return &op{uses: []int{oi}, lines: []string{
					fmt.Sprintf("var %s = externret ext_identity(%s);", x, o.name),
					fmt.Sprintf("%s[%d] = 5;", x, o.count+dd)}},
				Oracle{Kind: rt.KindOOBWrite, Extern: true,
					OffStart: o.count + dd, OffEnd: o.count + dd + 1}
		}},
}

// shapeFor returns the taxonomy entry by name.
func shapeFor(name string) *bugShape {
	for i := range shapes {
		if shapes[i].name == name {
			return &shapes[i]
		}
	}
	return nil
}

// ShapeNames lists the taxonomy in declaration order.
func ShapeNames() []string {
	out := make([]string, len(shapes))
	for i := range shapes {
		out[i] = shapes[i].name
	}
	return out
}

// injectBug picks one applicable (shape, object) pair — shape first, so
// rare object kinds still surface their shapes — and builds the bug op.
func injectBug(g *genState) (*op, Oracle) {
	var applicable []int
	for si := range shapes {
		for oi := range g.objects {
			if shapes[si].applies(g, oi) {
				applicable = append(applicable, si)
				break
			}
		}
	}
	s := &shapes[applicable[g.r.Intn(len(applicable))]]
	var objs []int
	for oi := range g.objects {
		if s.applies(g, oi) {
			objs = append(objs, oi)
		}
	}
	oi := objs[g.r.Intn(len(objs))]
	bugOp, o := s.build(g, oi)
	bugOp.essential = true
	o.Injected = true
	o.Shape = s.name
	o.Class = s.class
	o.Seg = g.obj(oi).seg
	if o.ObjBytes == 0 {
		o.ObjBytes = g.obj(oi).bytes()
	}
	return bugOp, o
}

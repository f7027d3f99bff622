package fuzz

import (
	"fmt"
	"sort"
	"strings"

	"cecsan/internal/splitmix"
)

// object is one buffer the generated program owns. Plain buffers live on
// the heap (malloc, always byte-typed), the stack (local T[n]) or in a
// global; struct objects are heap-only (new) and carry the sub-object GEP
// surface: struct S<B> { char buf[B]; long t0; long t1; }.
type object struct {
	name       string
	seg        string // "heap", "stack", "global"
	elem       string // "char", "int", "long", "wchar" (plain buffers)
	es         int64  // element size in bytes
	count      int64  // elements
	structBuf  int64  // >0: struct object; buf field element count
	freedByBug bool   // a temporal/double-free shape consumed the free
}

func align8(n int64) int64 { return (n + 7) &^ 7 }

// bytes is the object's total size (for structs: the struct size).
func (o *object) bytes() int64 {
	if o.structBuf > 0 {
		return align8(o.structBuf) + 16
	}
	return o.count * o.es
}

func (o *object) isStruct() bool { return o.structBuf > 0 }

// wideOK reports whether wcs*/wmem* calls fit the buffer cleanly.
func (o *object) wideOK() bool { return !o.isStruct() && o.bytes()%4 == 0 }

// op is one generated statement group: source lines for main, an optional
// helper function, the recv payloads it consumes, and the objects it uses.
type op struct {
	lines     []string
	helper    string
	inputs    [][]byte
	uses      []int // indices into Case.objects
	essential bool  // the injected bug; never removed by the minimizer
}

// genState carries the per-case generator state.
type genState struct {
	r       *splitmix.Rand
	objects []object
	nameN   int
}

func (g *genState) fresh(prefix string) string {
	g.nameN++
	return fmt.Sprintf("%s%d", prefix, g.nameN-1)
}

func (g *genState) obj(i int) *object { return &g.objects[i] }

// Fixed program preamble: shared source/scratch globals. Only the ones an
// op actually references are rendered.
const (
	gSrcName  = "GSRC"  // global char GSRC[256];       zero-filled copy source
	gStrName  = "GSTR"  // global char GSTR[] = "fuzz!" short C string
	gLongName = "GLONG" // 64-char C string, overflows every generated buffer
	gWideName = "WSRC"  // global wchar WSRC[16];       wide copy source
	gCellName = "CELL"  // global ptr CELL;             pointer spill slot
)

var gLongValue = strings.Repeat("a", 64)

var fixedGlobals = []struct{ name, decl string }{
	{gSrcName, "global char GSRC[256];"},
	{gStrName, `global char GSTR[] = "fuzz!";`},
	{gLongName, `global char GLONG[] = "` + gLongValue + `";`},
	{gWideName, "global wchar WSRC[16];"},
	{gCellName, "global ptr CELL;"},
}

// genObjects builds 1-3 objects. Object 0 is always a plain buffer so at
// least one bug shape applies to every layout.
func genObjects(g *genState) {
	n := g.r.RangeIn(1, 3)
	for i := 0; i < n; i++ {
		o := object{name: g.fresh("o")}
		if i > 0 && g.r.Chance(1, 4) {
			o.seg = "heap"
			o.structBuf = []int64{8, 12, 16, 20, 24, 32}[g.r.Intn(6)]
			g.objects = append(g.objects, o)
			continue
		}
		switch g.r.Intn(3) {
		case 0:
			o.seg = "heap"
		case 1:
			o.seg = "stack"
		default:
			o.seg = "global"
		}
		o.elem, o.es = "char", 1
		if o.seg != "heap" { // malloc buffers are byte-typed
			switch g.r.Intn(4) {
			case 0:
				o.elem, o.es = "int", 4
			case 1:
				o.elem, o.es = "long", 8
			case 2:
				o.elem, o.es = "wchar", 4
			}
		}
		switch o.es {
		case 1:
			o.count = int64(g.r.RangeIn(16, 64))
		case 4:
			o.count = int64(g.r.RangeIn(4, 16))
		default:
			o.count = int64(g.r.RangeIn(2, 8))
		}
		g.objects = append(g.objects, o)
	}
}

// benign op builders. Each returns nil when it does not apply to the
// object, so the picker can draw uniformly from the applicable set.
type benignBuilder func(g *genState, oi int) *op

var benignBuilders = []benignBuilder{
	// In-bounds fill loop over every element.
	func(g *genState, oi int) *op {
		o := g.obj(oi)
		if o.isStruct() {
			return nil
		}
		i := g.fresh("i")
		return &op{uses: []int{oi}, lines: []string{fmt.Sprintf(
			"for (%s = 0; %s < %d; %s += 1) { %s[%s] = %d; }",
			i, i, o.count, i, o.name, i, g.r.Intn(100))}}
	},
	// Read-and-sum loop.
	func(g *genState, oi int) *op {
		o := g.obj(oi)
		if o.isStruct() {
			return nil
		}
		i, v := g.fresh("i"), g.fresh("v")
		return &op{uses: []int{oi}, lines: []string{
			fmt.Sprintf("var %s = 0;", v),
			fmt.Sprintf("for (%s = 0; %s < %d; %s += 1) { %s = %s + %s[%s]; }",
				i, i, o.count, i, v, v, o.name, i),
			fmt.Sprintf("print_int(%s);", v)}}
	},
	// Single store through a runtime index (exercises the checked path).
	func(g *genState, oi int) *op {
		o := g.obj(oi)
		if o.isStruct() {
			return nil
		}
		v := g.fresh("v")
		return &op{uses: []int{oi}, lines: []string{
			fmt.Sprintf("var %s = %d;", v, g.r.Intn(int(o.count))),
			fmt.Sprintf("%s[%s] = %d;", o.name, v, g.r.Intn(100))}}
	},
	// Single in-bounds load.
	func(g *genState, oi int) *op {
		o := g.obj(oi)
		if o.isStruct() {
			return nil
		}
		v := g.fresh("v")
		return &op{uses: []int{oi}, lines: []string{
			fmt.Sprintf("var %s = %s[%d];", v, o.name, g.r.Intn(int(o.count))),
			fmt.Sprintf("print_int(%s);", v)}}
	},
	// memset of a prefix.
	func(g *genState, oi int) *op {
		o := g.obj(oi)
		if o.isStruct() {
			return nil
		}
		n := 1 + g.r.Intn(int(o.bytes()))
		return &op{uses: []int{oi}, lines: []string{
			fmt.Sprintf("memset(%s, %d, %d);", o.name, g.r.Intn(50), n)}}
	},
	// memcpy from the zero-filled global source.
	func(g *genState, oi int) *op {
		o := g.obj(oi)
		if o.isStruct() {
			return nil
		}
		n := 1 + g.r.Intn(int(o.bytes()))
		return &op{uses: []int{oi}, lines: []string{
			fmt.Sprintf("memcpy(%s, %s, %d);", o.name, gSrcName, n)}}
	},
	// strcpy of the short global string (len 5 + NUL).
	func(g *genState, oi int) *op {
		o := g.obj(oi)
		if o.isStruct() || o.elem != "char" || o.bytes() < 8 {
			return nil
		}
		return &op{uses: []int{oi}, lines: []string{
			fmt.Sprintf("strcpy(%s, %s);", o.name, gStrName)}}
	},
	// strncpy with n <= size-1 (SoftBound's wrapper over-checks n+1; the
	// clean generator never hands it an exact fill).
	func(g *genState, oi int) *op {
		o := g.obj(oi)
		if o.isStruct() || o.elem != "char" {
			return nil
		}
		n := 1 + g.r.Intn(int(o.bytes())-1)
		return &op{uses: []int{oi}, lines: []string{
			fmt.Sprintf("strncpy(%s, %s, %d);", o.name, gSrcName, n)}}
	},
	// wmemset over a prefix of a wide-capable buffer.
	func(g *genState, oi int) *op {
		o := g.obj(oi)
		if !o.wideOK() {
			return nil
		}
		n := 1 + g.r.Intn(int(o.bytes()/4))
		return &op{uses: []int{oi}, lines: []string{
			fmt.Sprintf("wmemset(%s, %d, %d);", o.name, g.r.Intn(50), n)}}
	},
	// wmemcpy from the wide global source.
	func(g *genState, oi int) *op {
		o := g.obj(oi)
		if !o.wideOK() {
			return nil
		}
		limit := o.bytes() / 4
		if limit > 16 {
			limit = 16
		}
		n := 1 + g.r.Intn(int(limit))
		return &op{uses: []int{oi}, lines: []string{
			fmt.Sprintf("wmemcpy(%s, %s, %d);", o.name, gWideName, n)}}
	},
	// Round-trip through uninstrumented external code, then a safe read.
	func(g *genState, oi int) *op {
		o := g.obj(oi)
		if o.isStruct() {
			return nil
		}
		a, v := g.fresh("x"), g.fresh("v")
		return &op{uses: []int{oi}, lines: []string{
			fmt.Sprintf("var %s = externret ext_identity(%s);", a, o.name),
			fmt.Sprintf("var %s = %s[%d];", v, a, g.r.Intn(int(o.count))),
			fmt.Sprintf("print_int(%s);", v)}}
	},
	// Helper-call flow: the pointer crosses a function boundary.
	func(g *genState, oi int) *op {
		o := g.obj(oi)
		if o.isStruct() {
			return nil
		}
		h := g.fresh("helper")
		idx := g.r.Intn(int(o.bytes())) // helpers index byte-wise
		return &op{uses: []int{oi},
			helper: fmt.Sprintf("func %s(p) { p[%d] = %d; }", h, idx, g.r.Intn(100)),
			lines:  []string{fmt.Sprintf("%s(%s);", h, o.name)}}
	},
	// recv-driven store behind a bounds guard, fed an in-range payload.
	func(g *genState, oi int) *op {
		o := g.obj(oi)
		if o.isStruct() {
			return nil
		}
		rb, k := g.fresh("rb"), g.fresh("k")
		payload := byte(g.r.Intn(int(o.count)))
		return &op{uses: []int{oi}, inputs: [][]byte{{payload}}, lines: []string{
			fmt.Sprintf("var %s = local char[8];", rb),
			fmt.Sprintf("recv(%s, 8);", rb),
			fmt.Sprintf("var %s = %s[0];", k, rb),
			fmt.Sprintf("if (%s < %d) { %s[%s] = 2; }", k, o.count, o.name, k)}}
	},
	// strlen of the NUL-terminated global string.
	func(g *genState, oi int) *op {
		v := g.fresh("v")
		return &op{lines: []string{
			fmt.Sprintf("var %s = strlen(%s);", v, gStrName),
			fmt.Sprintf("print_int(%s);", v)}}
	},
	// Struct scalar-field store.
	func(g *genState, oi int) *op {
		o := g.obj(oi)
		if !o.isStruct() {
			return nil
		}
		return &op{uses: []int{oi}, lines: []string{
			fmt.Sprintf("%s->t%d = %d;", o.name, g.r.Intn(2), g.r.Intn(100))}}
	},
	// Struct buf-field store through a runtime index (sub-object GEP).
	func(g *genState, oi int) *op {
		o := g.obj(oi)
		if !o.isStruct() {
			return nil
		}
		v := g.fresh("v")
		return &op{uses: []int{oi}, lines: []string{
			fmt.Sprintf("var %s = %d;", v, g.r.Intn(int(o.structBuf))),
			fmt.Sprintf("%s->buf[%s] = %d;", o.name, v, g.r.Intn(100))}}
	},
	// In-bounds memcpy into the struct's buf field (sub-object decay).
	func(g *genState, oi int) *op {
		o := g.obj(oi)
		if !o.isStruct() {
			return nil
		}
		n := 1 + g.r.Intn(int(o.structBuf))
		return &op{uses: []int{oi}, lines: []string{
			fmt.Sprintf("memcpy(%s->buf, %s, %d);", o.name, gSrcName, n)}}
	},
}

// genBenign appends one benign op on a random object, trying builders until
// one applies (the catalogue guarantees progress: several builders accept
// every object kind).
func genBenign(g *genState) *op {
	for {
		oi := g.r.Intn(len(g.objects))
		b := benignBuilders[g.r.Intn(len(benignBuilders))]
		if o := b(g, oi); o != nil {
			return o
		}
	}
}

// Generate builds the case for one seed: a random program, injected with
// exactly one labelled bug three times out of four.
func Generate(seed uint64) *Case {
	g := &genState{r: splitmix.New(seed)}
	genObjects(g)

	var ops []*op
	for n := g.r.RangeIn(2, 5); n > 0; n-- {
		ops = append(ops, genBenign(g))
	}

	oracle := Oracle{}
	if g.r.Chance(3, 4) {
		bugOp, o := injectBug(g)
		oracle = o
		if shapeFor(o.Shape).atEnd {
			ops = append(ops, bugOp)
		} else {
			at := g.r.Intn(len(ops) + 1)
			ops = append(ops[:at], append([]*op{bugOp}, ops[at:]...)...)
		}
	}

	c := &Case{Seed: seed, Oracle: oracle, objects: g.objects}
	for _, o := range ops {
		c.ops = append(c.ops, *o)
	}
	c.render()
	return c
}

// render rebuilds Source and Inputs from objects+ops. Objects not used by
// any remaining op (and not freed as part of the bug) are dropped, so the
// minimizer can shrink through re-rendering alone.
func (c *Case) render() {
	used := map[int]bool{}
	for _, o := range c.ops {
		for _, u := range o.uses {
			used[u] = true
		}
	}

	var b strings.Builder
	shape := c.Oracle.Shape
	if shape == "" {
		shape = "clean"
	}
	fmt.Fprintf(&b, "// fuzz seed=%d shape=%s\n", c.Seed, shape)

	// Struct declarations (dedup by buf size).
	structSeen := map[int64]bool{}
	var structSizes []int64
	for i := range c.objects {
		o := &c.objects[i]
		if used[i] && o.isStruct() && !structSeen[o.structBuf] {
			structSeen[o.structBuf] = true
			structSizes = append(structSizes, o.structBuf)
		}
	}
	sort.Slice(structSizes, func(i, j int) bool { return structSizes[i] < structSizes[j] })
	for _, sz := range structSizes {
		fmt.Fprintf(&b, "struct S%d { char buf[%d]; long t0; long t1; }\n", sz, sz)
	}

	// Fixed globals actually referenced.
	var allText strings.Builder
	for _, o := range c.ops {
		for _, l := range o.lines {
			allText.WriteString(l)
		}
		allText.WriteString(o.helper)
	}
	text := allText.String()
	for _, fg := range fixedGlobals {
		if strings.Contains(text, fg.name) {
			b.WriteString(fg.decl)
			b.WriteByte('\n')
		}
	}

	// Global-segment objects.
	for i := range c.objects {
		o := &c.objects[i]
		if used[i] && o.seg == "global" {
			fmt.Fprintf(&b, "global %s %s[%d];\n", o.elem, o.name, o.count)
		}
	}

	// Helpers.
	for _, o := range c.ops {
		if o.helper != "" {
			b.WriteString(o.helper)
			b.WriteByte('\n')
		}
	}

	b.WriteString("func main() {\n")
	for i := range c.objects {
		o := &c.objects[i]
		if !used[i] || o.seg == "global" {
			continue
		}
		switch {
		case o.isStruct():
			fmt.Fprintf(&b, "    var %s = new(S%d);\n", o.name, o.structBuf)
		case o.seg == "heap":
			fmt.Fprintf(&b, "    var %s = malloc(%d);\n", o.name, o.bytes())
		default:
			fmt.Fprintf(&b, "    var %s = local %s[%d];\n", o.name, o.elem, o.count)
		}
	}
	c.Inputs = nil
	for _, o := range c.ops {
		for _, l := range o.lines {
			fmt.Fprintf(&b, "    %s\n", l)
		}
		c.Inputs = append(c.Inputs, o.inputs...)
	}
	for i := range c.objects {
		o := &c.objects[i]
		if used[i] && o.seg == "heap" && !o.freedByBug {
			fmt.Fprintf(&b, "    free(%s);\n", o.name)
		}
	}
	b.WriteString("    return 0;\n}\n")
	c.Source = b.String()
}

// Package juliet generates the repository's analogue of the NIST Juliet
// Test Suite slice used in the paper's Table I/II evaluation: for each of
// the eight memory-safety CWEs it deterministically enumerates test cases
// as (good, bad) program pairs.
//
// A case is the cross product of a functional variant (the bug shape: how
// and where the overflow/UAF/bad-free happens), a control-flow variant
// (Juliet's flow wrappers: straight-line, flag-guarded, loop, helper call,
// external-input-guarded), and data variants (element type, buffer length).
// The shapes are chosen so that each comparator's design-level blind spots
// (sub-object overflows, redzone-skipping strides, intra-granule accesses,
// wide-character library calls, quarantine eviction, metadata lost through
// memory) occur at realistic frequencies; the detection rates of Table II
// then emerge from mechanism, not from hard-coded numbers.
//
// Cases that depend on external input (the paper's dummy-server cases that
// previous evaluations excluded) carry NeedsInput; the harness feeds their
// payloads, reproducing the paper's automation-framework contribution.
package juliet

import (
	"bytes"
	"fmt"

	"cecsan/internal/splitmix"
	"cecsan/prog"
)

// CWE identifies one of the evaluated weakness classes.
type CWE int

// The eight CWEs of Table I.
const (
	CWE121 CWE = 121 // stack buffer overflow
	CWE122 CWE = 122 // heap buffer overflow
	CWE124 CWE = 124 // buffer underwrite
	CWE126 CWE = 126 // buffer overread
	CWE127 CWE = 127 // buffer underread
	CWE415 CWE = 415 // double free
	CWE416 CWE = 416 // use after free
	CWE761 CWE = 761 // free of pointer not at start of buffer
)

// String returns "CWE121" etc.
func (c CWE) String() string { return fmt.Sprintf("CWE%d", int(c)) }

// Description returns Table I's vulnerability-type column.
func (c CWE) Description() string {
	switch c {
	case CWE121:
		return "Stack Buffer Overflow"
	case CWE122:
		return "Heap Buffer Overflow"
	case CWE124:
		return "Buffer Underwrite"
	case CWE126:
		return "Buffer Overread"
	case CWE127:
		return "Buffer Underread"
	case CWE415:
		return "Double Free"
	case CWE416:
		return "Use After Free"
	case CWE761:
		return "Invalid Free"
	default:
		return "Unknown"
	}
}

// TableI returns the per-CWE case counts of the paper's Table I.
func TableI() map[CWE]int {
	return map[CWE]int{
		CWE121: 4896,
		CWE122: 3777,
		CWE124: 1440,
		CWE126: 2004,
		CWE127: 2000,
		CWE415: 818,
		CWE416: 393,
		CWE761: 424,
	}
}

// AllCWEs lists the CWEs in Table I order.
func AllCWEs() []CWE {
	return []CWE{CWE121, CWE122, CWE124, CWE126, CWE127, CWE415, CWE416, CWE761}
}

// TotalCases is Table I's total.
const TotalCases = 15752

// Case is one generated test case: a good (benign) and a bad (flawed)
// program pair plus the attributes the harness uses for subsetting.
type Case struct {
	ID  string
	CWE CWE

	Good *prog.Program
	Bad  *prog.Program
	// GoodInputs / BadInputs are the dummy-server payloads each version
	// consumes, in order.
	GoodInputs [][]byte
	BadInputs  [][]byte

	// NeedsInput marks cases driven by external input (excluded by the
	// PACMem and CryptSan published evaluations).
	NeedsInput bool
	// Wide marks cases exercising the wide-character library family.
	Wide bool
	// SubObject marks intra-object overflow cases (Figure 3 shapes).
	SubObject bool
	// Shape and Flow name the functional and control-flow variants; Elem
	// is the element type name.
	Shape string
	Flow  string
	Elem  string
}

// dims are the data variants of one case.
type dims struct {
	elem *prog.Type
	n    int64 // element count
	heap bool  // buffer segment (where the CWE allows both)
	salt int64 // extra enumeration entropy (perturbs sizes)
}

// caseBuilder carries emission state through a shape builder.
type caseBuilder struct {
	pb *prog.ProgramBuilder
	f  *prog.FuncBuilder
	d  dims

	goodInputs [][]byte
	badInputs  [][]byte
	bad        bool
}

// input queues a payload for whichever version is being built.
func (c *caseBuilder) input(good, bad []byte) {
	c.goodInputs = append(c.goodInputs, good)
	c.badInputs = append(c.badInputs, bad)
}

// feed returns the payload for the version under construction.
func (c *caseBuilder) pick(good, bad int64) int64 {
	if c.bad {
		return bad
	}
	return good
}

// buf allocates the case's buffer per dims (stack or heap), returning the
// pointer register and the byte size.
func (c *caseBuilder) buf() (prog.Reg, int64) {
	t := prog.ArrayOf(c.d.elem, c.d.n)
	if c.d.heap {
		return c.f.MallocType(t), t.Size()
	}
	return c.f.Alloca(t), t.Size()
}

// releaseBuf frees heap buffers so good versions exit cleanly.
func (c *caseBuilder) releaseBuf(p prog.Reg) {
	if c.d.heap {
		c.f.Free(p)
	}
}

// shape is one functional variant.
type shape struct {
	name       string
	wide       bool
	subObject  bool
	needsInput bool
	// weight is the shape's relative frequency in the enumeration (how
	// often the corresponding bug flavour occurs in the real Juliet suite);
	// 0 means 1.
	weight int
	// stackOnly/heapOnly restrict the segment dim.
	stackOnly bool
	heapOnly  bool
	build     func(c *caseBuilder)
}

// flow is one control-flow variant wrapper.
type flow struct {
	name       string
	needsInput bool
	wrap       func(c *caseBuilder, body func())
}

// flows are the Juliet-style control-flow wrappers.
var flows = []flow{
	{
		name: "flow01_straight",
		wrap: func(c *caseBuilder, body func()) { body() },
	},
	{
		name: "flow02_if_const_global",
		wrap: func(c *caseBuilder, body func()) {
			c.pb.GlobalInit("global_const_true", prog.Int(), 1)
			v := c.f.Load(c.f.GlobalAddr("global_const_true"), 0, prog.Int())
			c.f.If(v, body, nil)
		},
	},
	{
		name: "flow03_while_once",
		wrap: func(c *caseBuilder, body func()) {
			f := c.f
			flag := f.NewReg()
			f.AssignConst(flag, 1)
			f.While(
				func() prog.Reg { return flag },
				func() {
					body()
					f.AssignConst(flag, 0)
				},
			)
		},
	},
	{
		name: "flow04_helper_call",
		wrap: func(c *caseBuilder, body func()) {
			main := c.f
			helper := c.pb.Function("flow_helper", 0)
			c.f = helper
			body()
			c.f = main
			main.Call("flow_helper")
		},
	},
	{
		name:       "flow05_input_guard",
		needsInput: true,
		wrap: func(c *caseBuilder, body func()) {
			// Read one byte from the dummy server; run the body when it is
			// 0x42 (both versions receive 0x42 — the flaw is in the body).
			c.input([]byte{0x42}, []byte{0x42})
			f := c.f
			gbuf := f.Alloca(prog.ArrayOf(prog.Char(), 4))
			f.Libc("recv", gbuf, f.Const(1))
			b := f.Load(gbuf, 0, prog.Char())
			cond := f.Cmp(prog.CmpEq, b, f.Const(0x42))
			f.If(cond, body, nil)
		},
	},
}

// scalarTypes are the non-wide element types Juliet varies.
var scalarTypes = []*prog.Type{prog.Char(), prog.Int(), prog.Int64T()}

// lengths are the buffer length variants (element counts). Odd lengths
// create intra-granule layouts.
var lengths = []int64{8, 13, 16, 25, 32, 64, 100}

// Generate deterministically produces n cases for one CWE.
func Generate(cwe CWE, n int) ([]*Case, error) {
	ss := shapesFor(cwe)
	if len(ss) == 0 {
		return nil, fmt.Errorf("juliet: no shapes for %v", cwe)
	}
	out := make([]*Case, 0, n)
	for i := 0; i < n; i++ {
		cs, err := buildCase(cwe, i, ss)
		if err != nil {
			return nil, fmt.Errorf("juliet: %v case %d: %w", cwe, i, err)
		}
		out = append(out, cs)
	}
	return out, nil
}

// buildCase assembles case i of a CWE from the enumeration dimensions.
// Dimensions are picked by hashing the index so that every dimension varies
// immediately (a plain mixed radix would leave small suites with a single
// buffer size) while shape frequencies stay exactly proportional to their
// weights.
func buildCase(cwe CWE, i int, ss []shape) (*Case, error) {
	h := splitmix.Mix(uint64(i) ^ uint64(cwe)<<32)
	pick := func(n int) int {
		h = splitmix.Mix(h)
		return int(h % uint64(n))
	}
	sh := ss[i%len(ss)]
	fl := flows[pick(len(flows))]

	d := dims{}
	if sh.wide {
		d.elem = prog.WChar()
	} else {
		d.elem = scalarTypes[pick(len(scalarTypes))]
	}
	d.n = lengths[pick(len(lengths))]
	d.salt = int64(pick(4))
	// Salt perturbs the length so deep enumeration keeps producing
	// distinct layouts.
	d.n += 8 * (d.salt % 4)

	switch {
	case sh.heapOnly || cwe == CWE122 || cwe == CWE415 || cwe == CWE416 || cwe == CWE761:
		d.heap = true
	case sh.stackOnly || cwe == CWE121:
		d.heap = false
	default:
		d.heap = i%2 == 1
	}

	id := fmt.Sprintf("%s__%s_%s_%s_n%d_%05d", cwe, sh.name, fl.name, d.elem.Name(), d.n, i)

	build := func(bad bool) (*prog.Program, [][]byte, [][]byte, error) {
		pb := prog.NewProgram()
		registerCommonGlobals(pb)
		main := pb.Function("main", 0)
		cb := &caseBuilder{pb: pb, f: main, d: d, bad: bad}
		fl.wrap(cb, func() { sh.build(cb) })
		p, err := pb.Build()
		if err != nil {
			return nil, nil, nil, err
		}
		return p, cb.goodInputs, cb.badInputs, nil
	}

	good, gi, _, err := build(false)
	if err != nil {
		return nil, err
	}
	bad, _, bi, err := build(true)
	if err != nil {
		return nil, err
	}
	return &Case{
		ID:         id,
		CWE:        cwe,
		Elem:       d.elem.Name(),
		Good:       good,
		Bad:        bad,
		GoodInputs: gi,
		BadInputs:  bi,
		NeedsInput: sh.needsInput || fl.needsInput,
		Wide:       sh.wide,
		SubObject:  sh.subObject,
		Shape:      sh.name,
		Flow:       fl.name,
	}, nil
}

// registerCommonGlobals declares the data-source globals shapes rely on.
// Every case program declares them alike, so all programs share one type
// and initializer each. Fingerprint interns types per program, and each
// shared type appears once in a program, so sharing moves no fingerprint.
func registerCommonGlobals(pb *prog.ProgramBuilder) {
	pb.Global("g_src", gSrcType)
	pb.GlobalData("g_short", gShortType, gShort)
	pb.GlobalData("g_long", gLongType, gLong)
}

var (
	// g_src is a long source region (zero-filled) for memcpy-style
	// shapes: always larger than any buffer variant.
	gSrcType = prog.ArrayOf(prog.Char(), 4096)
	// g_short is a NUL-terminated string exactly 7 chars long for strcpy
	// good paths.
	gShort     = []byte("short67")
	gShortType = prog.ArrayOf(prog.Char(), int64(len(gShort))+1)
	// g_long is a string for strcpy bad paths that is longer than any
	// buffer variant.
	gLong     = bytes.Repeat([]byte{'A'}, 2000)
	gLongType = prog.ArrayOf(prog.Char(), int64(len(gLong))+1)
)

// Suite generates the full Table I suite.
func Suite() ([]*Case, error) {
	var out []*Case
	counts := TableI()
	for _, cwe := range AllCWEs() {
		cases, err := Generate(cwe, counts[cwe])
		if err != nil {
			return nil, err
		}
		out = append(out, cases...)
	}
	return out, nil
}

// SubsetPACMem reports whether the PACMem published evaluation would have
// included the case (it excluded every case needing external input).
func SubsetPACMem(c *Case) bool { return !c.NeedsInput }

// SubsetCryptSan approximates CryptSan's published 5,364-case subset: no
// external input, no wide characters, and only the simple flow variants its
// harness automated.
func SubsetCryptSan(c *Case) bool {
	return !c.NeedsInput && !c.Wide &&
		(c.Flow == "flow01_straight" || c.Flow == "flow02_if_const_global")
}

// SubsetSoftBound approximates the 3,970 cases that compile under the
// released SoftBound/CETS prototype: no wide characters, no input-driven
// cases, simple flows, and no 8-byte element types (the prototype's
// metadata propagation rejects several int64 idioms).
func SubsetSoftBound(c *Case) bool {
	return !c.NeedsInput && !c.Wide && c.Elem != "int64" &&
		(c.Flow == "flow01_straight" || c.Flow == "flow02_if_const_global")
}

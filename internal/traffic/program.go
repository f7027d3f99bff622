package traffic

import (
	"fmt"
	"strings"

	"cecsan/csrc"
	"cecsan/internal/fuzz"
	"cecsan/internal/splitmix"
	"cecsan/prog"
)

// Variant is one compiled request-program variant a client class draws
// from. A class with N variants models a service replaying a bounded
// family of handlers: the instrumentation cache converges to run-path
// hits while requests still differ in shape.
type Variant struct {
	// Seed is the generator seed this variant was rendered from.
	Seed uint64
	// Source is the csrc source text (part of the determinism contract:
	// stream digests hash the compiled program's fingerprint).
	Source string
	// Inputs are the recv payloads the program consumes, if any.
	Inputs [][]byte
	// Program is the compiled program.
	Program *prog.Program
}

// buildVariant renders and compiles one variant of the given kind. All
// kinds are deterministic in seed.
func buildVariant(kind string, seed uint64) (*Variant, error) {
	v := &Variant{Seed: seed}
	switch kind {
	case KindFuzz:
		c := fuzz.Generate(seed)
		v.Source = c.Source
		v.Inputs = c.Inputs
	case KindSpatial:
		v.Source = genSpatial(splitmix.New(seed), seed)
	case KindChurn:
		v.Source = genChurn(splitmix.New(seed), seed)
	case KindMixed:
		r := splitmix.New(seed)
		v.Source = genMixed(r, seed)
	default:
		return nil, fmt.Errorf("traffic: unknown program kind %q", kind)
	}
	p, err := csrc.Compile(v.Source)
	if err != nil {
		return nil, fmt.Errorf("traffic: %s variant seed=%d: %w", kind, seed, err)
	}
	v.Program = p
	return v, nil
}

// genSpatial renders a short, spatial-check-heavy program: stack and
// global buffers filled and summed in tight loops, plus libc copies. The
// "interactive" request shape — lots of bounds checks, no allocator
// churn, quick to finish.
func genSpatial(r *splitmix.Rand, seed uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// traffic spatial seed=%d\n", seed)
	gN := 16 + r.Intn(49) // 16..64
	fmt.Fprintf(&b, "global char G0[%d];\n", gN)
	b.WriteString("func main() {\n")
	sN := 16 + r.Intn(49)
	fmt.Fprintf(&b, "    var b0 = local char[%d];\n", sN)
	fmt.Fprintf(&b, "    memset(b0, %d, %d);\n", 1+r.Intn(40), sN)
	cp := sN
	if gN < cp {
		cp = gN
	}
	fmt.Fprintf(&b, "    memcpy(b0, G0, %d);\n", 1+r.Intn(cp))
	b.WriteString("    var s0 = 0;\n")
	fmt.Fprintf(&b, "    for (i0 = 0; i0 < %d; i0 += 1) { s0 = s0 + b0[i0]; }\n", sN)
	fmt.Fprintf(&b, "    for (i1 = 0; i1 < %d; i1 += 1) { G0[i1] = %d; }\n", gN, r.Intn(100))
	fmt.Fprintf(&b, "    for (i2 = 0; i2 < %d; i2 += 1) { s0 = s0 + G0[i2]; }\n", gN)
	wN := 4 + r.Intn(13) // 4..16
	fmt.Fprintf(&b, "    var w0 = local int[%d];\n", wN)
	fmt.Fprintf(&b, "    for (i3 = 0; i3 < %d; i3 += 1) { w0[i3] = %d; }\n", wN, r.Intn(100))
	fmt.Fprintf(&b, "    for (i4 = 0; i4 < %d; i4 += 1) { s0 = s0 + w0[i4]; }\n", wN)
	b.WriteString("    print_int(s0);\n")
	b.WriteString("    return 0;\n}\n")
	return b.String()
}

// genChurn renders an alloc-churn / temporal program: a held allocation
// outliving a malloc/touch/free loop, exercising allocator metadata,
// quarantine and tag-reuse paths. The "batch" request shape.
func genChurn(r *splitmix.Rand, seed uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// traffic churn seed=%d\n", seed)
	b.WriteString("func main() {\n")
	hold := 16 + 8*r.Intn(7) // 16..64, 8-aligned
	fmt.Fprintf(&b, "    var h0 = malloc(%d);\n", hold)
	fmt.Fprintf(&b, "    memset(h0, %d, %d);\n", 1+r.Intn(40), hold)
	b.WriteString("    var s0 = 0;\n")
	rounds := 6 + r.Intn(11) // 6..16
	sz := 8 + 8*r.Intn(6)    // 8..48
	fmt.Fprintf(&b,
		"    for (i0 = 0; i0 < %d; i0 += 1) { var p0 = malloc(%d); memset(p0, %d, %d); s0 = s0 + p0[%d]; free(p0); }\n",
		rounds, sz, 1+r.Intn(40), sz, r.Intn(sz))
	sz2 := 8 + 8*r.Intn(6)
	fmt.Fprintf(&b,
		"    for (i1 = 0; i1 < %d; i1 += 1) { var p1 = malloc(%d); p1[%d] = %d; s0 = s0 + p1[0]; free(p1); }\n",
		3+r.Intn(8), sz2, r.Intn(sz2), r.Intn(100))
	fmt.Fprintf(&b, "    s0 = s0 + h0[%d];\n", r.Intn(hold))
	b.WriteString("    free(h0);\n")
	b.WriteString("    print_int(s0);\n")
	b.WriteString("    return 0;\n}\n")
	return b.String()
}

// genMixed renders a program with both shapes: a spatial prologue over a
// stack buffer followed by a churn loop against a held heap allocation.
func genMixed(r *splitmix.Rand, seed uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// traffic mixed seed=%d\n", seed)
	b.WriteString("func main() {\n")
	sN := 16 + r.Intn(33)
	fmt.Fprintf(&b, "    var b0 = local char[%d];\n", sN)
	fmt.Fprintf(&b, "    memset(b0, %d, %d);\n", 1+r.Intn(40), sN)
	b.WriteString("    var s0 = 0;\n")
	fmt.Fprintf(&b, "    for (i0 = 0; i0 < %d; i0 += 1) { s0 = s0 + b0[i0]; }\n", sN)
	hold := 16 + 8*r.Intn(5)
	fmt.Fprintf(&b, "    var h0 = malloc(%d);\n", hold)
	fmt.Fprintf(&b, "    memset(h0, %d, %d);\n", 1+r.Intn(40), hold)
	sz := 8 + 8*r.Intn(5)
	fmt.Fprintf(&b,
		"    for (i1 = 0; i1 < %d; i1 += 1) { var p0 = malloc(%d); memset(p0, %d, %d); s0 = s0 + p0[%d]; free(p0); }\n",
		4+r.Intn(9), sz, 1+r.Intn(40), sz, r.Intn(sz))
	fmt.Fprintf(&b, "    s0 = s0 + h0[%d];\n", r.Intn(hold))
	b.WriteString("    free(h0);\n")
	b.WriteString("    print_int(s0);\n")
	b.WriteString("    return 0;\n}\n")
	return b.String()
}

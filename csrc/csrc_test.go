package csrc

import (
	"strings"
	"testing"

	"cecsan"
	"cecsan/prog"
)

// run compiles and executes source under the named sanitizer.
func run(t *testing.T, src, sanitizer string, inputs ...[]byte) *cecsan.Result {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v\nsource:\n%s", err, src)
	}
	res, err := cecsan.Run(p, cecsan.Config{Sanitizer: sanitizer, Inputs: inputs})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestArithmeticAndControlFlow(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want uint64
	}{
		{
			name: "arithmetic precedence",
			src:  `func main() { return 2 + 3 * 4 - 10 / 2; }`,
			want: 9,
		},
		{
			name: "hex char shifts",
			src:  `func main() { return (0x10 << 2) + 'A' + (1 << 8 >> 8); }`,
			want: 64 + 65 + 1,
		},
		{
			name: "comparisons and logic",
			src:  `func main() { return (3 < 4) + (4 <= 4) + (5 > 9) + (1 != 2) + (2 == 2 && 3 != 3) + (0 || 7); }`,
			want: 4,
		},
		{
			name: "if else",
			src: `func main() {
				var x = 10;
				if (x > 5) { x = 100; } else { x = 200; }
				if (x == 200) { x = x + 1; }
				return x;
			}`,
			want: 100,
		},
		{
			name: "while",
			src: `func main() {
				var n = 1;
				while (n < 100) { n = n * 3; }
				return n;
			}`,
			want: 243,
		},
		{
			name: "for loop sum",
			src: `func main() {
				var s = 0;
				for (i = 0; i < 101; i += 1) { s = s + i; }
				return s;
			}`,
			want: 5050,
		},
		{
			name: "descending for",
			src: `func main() {
				var c = 0;
				for (i = 10; i > 0; i -= 2) { c = c + 1; }
				return c;
			}`,
			want: 5,
		},
		{
			name: "unary minus and not",
			src:  `func main() { return -(0 - 7) + !0 + !5; }`,
			want: 8,
		},
		{
			name: "function calls",
			src: `
				func add(a, b) { return a + b; }
				func twice(x) { return add(x, x); }
				func main() { return twice(add(3, 4)); }`,
			want: 14,
		},
		{
			name: "comments",
			src: `// leading comment
				func main() {
					var x = 1; // trailing
					return x;
				}`,
			want: 1,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := run(t, tt.src, cecsan.Native)
			if !res.Ok() {
				t.Fatalf("run failed: %+v", res)
			}
			if res.Ret != tt.want {
				t.Fatalf("ret = %d, want %d", res.Ret, tt.want)
			}
		})
	}
}

func TestMemoryAndTypes(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want uint64
	}{
		{
			name: "malloc index store load",
			src: `func main() {
				var p = malloc(16);
				p[3] = 'Z';
				var v = p[3];
				free(p);
				return v;
			}`,
			want: 'Z',
		},
		{
			name: "typed local array",
			src: `func main() {
				var b = local long[8];
				for (i = 0; i < 8; i += 1) { b[i] = i * i; }
				return b[7];
			}`,
			want: 49,
		},
		{
			name: "struct fields",
			src: `
				struct Pair { long a; long b; }
				func main() {
					var s = new(Pair);
					s->a = 11;
					s->b = s->a * 2;
					var v = s->b;
					free(s);
					return v;
				}`,
			want: 22,
		},
		{
			name: "array field with memcpy",
			src: `
				struct Msg { char buf[8]; long n; }
				global char src[] = "hiworld";
				func main() {
					var m = new(Msg);
					memcpy(m->buf, src, 8);
					m->n = strlen(m->buf);
					var v = m->n;
					free(m);
					return v;
				}`,
			want: 7,
		},
		{
			name: "globals scalar and array",
			src: `
				global int counter = 5;
				global char data[32];
				func main() {
					counter = counter + 1;
					memset(data, 'x', 32);
					return counter + data[31];
				}`,
			want: 6 + 'x',
		},
		{
			name: "calloc and realloc",
			src: `func main() {
				var p = calloc(4, 8);
				p[31] = 9;
				var q = realloc(p, 64);
				var v = q[31];
				free(q);
				return v;
			}`,
			want: 9,
		},
		{
			name: "extern round trip",
			src: `func main() {
				var p = malloc(8);
				var q = externret ext_identity(p);
				q[0] = 5;
				var v = q[0];
				free(q);
				return v;
			}`,
			want: 5,
		},
		{
			name: "string compare",
			src: `
				global char a[] = "same";
				global char b[] = "same";
				func main() { return strcmp(a, b) == 0; }`,
			want: 1,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := run(t, tt.src, cecsan.CECSan)
			if !res.Ok() {
				t.Fatalf("run failed under CECSan: violation=%v fault=%v err=%v", res.Violation, res.Fault, res.Err)
			}
			if res.Ret != tt.want {
				t.Fatalf("ret = %d, want %d", res.Ret, tt.want)
			}
		})
	}
}

// TestBugsAreDetected compiles buggy source and checks CECSan reports.
func TestBugsAreDetected(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{
			name: "heap overflow",
			src: `func main() {
				var p = malloc(16);
				for (i = 0; i < 17; i += 1) { p[i] = i; }
				free(p);
				return 0;
			}`,
		},
		{
			name: "use after free",
			src: `func main() {
				var p = malloc(16);
				free(p);
				p[0] = 1;
				return 0;
			}`,
		},
		{
			name: "double free",
			src:  `func main() { var p = malloc(16); free(p); free(p); return 0; }`,
		},
		{
			name: "figure 3 sub-object overflow",
			src: `
				struct CharVoid { char charFirst[16]; ptr voidSecond; }
				global char source[32];
				func main() {
					var s = new(CharVoid);
					memcpy(s->charFirst, source, 24);
					free(s);
					return 0;
				}`,
		},
		{
			name: "stack overflow via loop",
			src: `func main() {
				var b = local char[8];
				for (i = 0; i < 9; i += 1) { b[i] = i; }
				return 0;
			}`,
		},
		{
			name: "input driven overflow",
			src: `func main() {
				var b = local char[8];
				var n = recv(b, 16);
				return n;
			}`,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res := run(t, tt.src, cecsan.CECSan, []byte("0123456789ABCDEF"))
			if res.Violation == nil {
				t.Fatalf("bug not detected: %+v", res)
			}
		})
	}
	// The Figure 3 case must be missed by ASan (sub-object).
	res := run(t, tests[3].src, cecsan.ASan)
	if res.Violation != nil {
		t.Fatalf("ASan unexpectedly detected the sub-object overflow: %v", res.Violation)
	}
}

// TestSubObjectGEPFlags checks the front end emits the flags §II.D needs.
func TestSubObjectGEPFlags(t *testing.T) {
	p := MustCompile(`
		struct S { char buf[8]; long n; }
		func main() {
			var s = new(S);
			memset(s->buf, 0, 8);
			free(s);
			return 0;
		}`)
	var found bool
	for _, in := range p.Funcs["main"].Code {
		if in.Op == prog.OpGEP && in.Has(prog.FlagSubObject) {
			found = true
		}
	}
	if !found {
		t.Fatal("array field access did not emit a sub-object GEP")
	}
}

// TestForLoopRecordsSCEV checks counted loops carry scalar-evolution facts.
func TestForLoopRecordsSCEV(t *testing.T) {
	p := MustCompile(`func main() {
		var s = 0;
		for (i = 0; i < 64; i += 1) { s = s + i; }
		return s;
	}`)
	if len(p.Funcs["main"].Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(p.Funcs["main"].Loops))
	}
	l := p.Funcs["main"].Loops[0]
	if !l.Limit.IsConst || l.Limit.Const != 64 || l.Step != 1 {
		t.Fatalf("SCEV facts wrong: %+v", l)
	}
}

func TestCompileErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"undefined variable", `func main() { return nope; }`, "undefined name"},
		{"undefined type", `func main() { var x = new(Ghost); return 0; }`, "unknown type"},
		{"duplicate function", `func a() {} func a() {}`, "defined twice"},
		{"duplicate variable", `func main() { var x = 1; var x = 2; }`, "already declared"},
		{"arity mismatch", `func f(a) { return a; } func main() { return f(1, 2); }`, "want 1"},
		{"bad field", `struct S { long a; } func main() { var s = new(S); return s->b; }`, "no field"},
		{"arrow on int", `func main() { var x = 1; return x->y; }`, "struct pointer"},
		{"assign to array field", `struct S { char b[4]; } func main() { var s = new(S); s->b = 1; }`, "not assignable"},
		{"unterminated block", `func main() { return 0;`, "unterminated"},
		{"unterminated string", `global char s[] = "abc`, "unterminated string"},
		{"bad escape", `global char s[] = "a\q";`, "unknown escape"},
		{"reserved name", `func main() { var memcpy = 1; }`, "reserved"},
		{"for shadow", `func main() { var i = 1; for (i = 0; i < 3; i += 1) {} }`, "shadows"},
		{"mismatched step", `func main() { for (i = 0; i < 3; i -= 1) {} }`, "direction"},
		{"missing main", `func helper() { return 0; }`, "entry"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Compile(tt.src)
			if err == nil {
				t.Fatal("Compile succeeded, want error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile did not panic")
		}
	}()
	MustCompile("not a program")
}

package sanitizers

import (
	"testing"

	"cecsan/internal/instrument"
	"cecsan/internal/interp"
	"cecsan/prog"
)

// outcome classifies one sanitizer run of one scenario.
type outcome int

const (
	clean  outcome = iota // ran to completion, no report
	report                // sanitizer violation
	crash                 // machine fault
)

// runUnder instruments and executes p under the named sanitizer.
func runUnder(t *testing.T, p *prog.Program, name Name) outcome {
	t.Helper()
	san, err := New(name)
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	ip := instrument.Apply(p, san.Profile)
	m, err := interp.New(ip, san, interp.DefaultOptions())
	if err != nil {
		t.Fatalf("interp.New(%s): %v", name, err)
	}
	res := m.Run()
	switch {
	case res.Violation != nil:
		return report
	case res.Fault != nil:
		return crash
	case res.Err != nil:
		t.Fatalf("%s: unexpected execution error: %v", name, res.Err)
		return crash
	default:
		return clean
	}
}

// TestRegistry constructs every sanitizer and checks names line up.
func TestRegistry(t *testing.T) {
	for _, name := range All() {
		san, err := New(name)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if got := san.Runtime.Name(); got != string(name) {
			t.Errorf("runtime name %q != registry name %q", got, name)
		}
		if san.Profile.Name != string(name) {
			t.Errorf("profile name %q != registry name %q", san.Profile.Name, name)
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Error("New(bogus) did not error")
	}
}

// TestDetectionMatrix is the mechanism-level core of Table II: each
// scenario is a bug shape, and each sanitizer detects or misses it strictly
// according to its design.
func TestDetectionMatrix(t *testing.T) {
	figure3 := prog.StructOf("CharVoid",
		prog.FieldSpec{Name: "charFirst", Type: prog.ArrayOf(prog.Char(), 16)},
		prog.FieldSpec{Name: "voidSecond", Type: prog.VoidPtr()},
	)

	scenarios := []struct {
		name  string
		build func() *prog.Program
		want  map[Name]outcome
	}{
		{
			// Contiguous heap off-by-one: lands in the adjacent redzone /
			// mismatched granule / out of bounds — everyone catches it.
			name: "heap contiguous overflow",
			build: func() *prog.Program {
				pb := prog.NewProgram()
				f := pb.Function("main", 0)
				b := f.MallocBytes(64)
				i := f.Libc("rand")
				off := f.Add(f.Bin(prog.BinAnd, i, f.Const(0)), f.Const(64)) // dynamic 64
				f.Store(f.OffsetPtrReg(b, off), 0, f.Const(1), prog.Char())
				f.RetVoid()
				return pb.MustBuild()
			},
			want: map[Name]outcome{
				Native: clean, CECSan: report, ASan: report, ASanLite: report,
				HWASan: report, SoftBound: report, PACMem: report, CryptSan: report,
			},
		},
		{
			// Large stride lands inside ANOTHER live chunk: identity-based
			// tools catch it; ASan's redzone is skipped over. (HWASan
			// catches it because the victim carries a different tag.)
			name: "redzone-skipping stride overflow",
			build: func() *prog.Program {
				pb := prog.NewProgram()
				f := pb.Function("main", 0)
				a := f.MallocBytes(64)
				bufs := make([]prog.Reg, 8)
				for i := range bufs {
					bufs[i] = f.MallocBytes(64) // victims beyond the redzone
				}
				i := f.Libc("rand")
				off := f.Add(f.Bin(prog.BinAnd, i, f.Const(0)), f.Const(4096+32))
				f.Store(f.OffsetPtrReg(a, off), 0, f.Const(1), prog.Char())
				for _, b := range bufs {
					f.Free(b)
				}
				f.RetVoid()
				return pb.MustBuild()
			},
			want: map[Name]outcome{
				Native: clean, CECSan: report, ASan: clean, ASanLite: clean,
				HWASan: report, SoftBound: report, PACMem: report, CryptSan: report,
			},
		},
		{
			// Off-by-one into an odd-sized buffer's own 16-byte granule:
			// HWASan's uniform granule tag cannot see it; ASan's partial
			// shadow byte can.
			name: "intra-granule overflow",
			build: func() *prog.Program {
				pb := prog.NewProgram()
				f := pb.Function("main", 0)
				b := f.MallocBytes(13)
				i := f.Libc("rand")
				off := f.Add(f.Bin(prog.BinAnd, i, f.Const(0)), f.Const(13))
				f.Store(f.OffsetPtrReg(b, off), 0, f.Const(1), prog.Char())
				f.RetVoid()
				return pb.MustBuild()
			},
			want: map[Name]outcome{
				Native: clean, CECSan: report, ASan: report, ASanLite: report,
				HWASan: clean, SoftBound: report, PACMem: report, CryptSan: report,
			},
		},
		{
			// Figure 3 sub-object overflow: CECSan only.
			name: "sub-object overflow",
			build: func() *prog.Program {
				pb := prog.NewProgram()
				pb.GlobalBytes("src", make([]byte, 32))
				f := pb.Function("main", 0)
				obj := f.MallocType(figure3)
				fp := f.FieldPtr(obj, figure3, "charFirst")
				f.Libc("memcpy", fp, f.GlobalAddr("src"), f.Const(figure3.Size()))
				f.Free(obj)
				f.RetVoid()
				return pb.MustBuild()
			},
			want: map[Name]outcome{
				Native: clean, CECSan: report, ASan: clean, ASanLite: clean,
				HWASan: clean, SoftBound: clean, PACMem: clean, CryptSan: clean,
			},
		},
		{
			// Wide-character overflow through wcsncpy: interceptor-based
			// tools and the SoftBound wrappers miss the wide family.
			name: "wcsncpy overflow",
			build: func() *prog.Program {
				pb := prog.NewProgram()
				f := pb.Function("main", 0)
				dst := f.MallocType(prog.ArrayOf(prog.WChar(), 8))
				src := f.MallocType(prog.ArrayOf(prog.WChar(), 16))
				f.Libc("wmemset", src, f.Const('A'), f.Const(15))
				f.Libc("wcsncpy", dst, src, f.Const(16)) // 64 bytes into 32
				f.Free(dst)
				f.Free(src)
				f.RetVoid()
				return pb.MustBuild()
			},
			want: map[Name]outcome{
				Native: clean, CECSan: report, ASan: clean, ASanLite: clean,
				HWASan: clean, SoftBound: clean, PACMem: report, CryptSan: report,
			},
		},
		{
			// Immediate heap use-after-free: everyone.
			name: "immediate UAF",
			build: func() *prog.Program {
				pb := prog.NewProgram()
				f := pb.Function("main", 0)
				b := f.MallocBytes(64)
				f.Free(b)
				f.Store(b, 0, f.Const(1), prog.Int64T())
				f.RetVoid()
				return pb.MustBuild()
			},
			want: map[Name]outcome{
				Native: clean, CECSan: report, ASan: report, ASanLite: report,
				HWASan: report, SoftBound: report, PACMem: report, CryptSan: report,
			},
		},
		{
			// UAF through a pointer that round-tripped through memory: the
			// SoftBound prototype's shadow loses the CETS key (§IV.B flaw).
			name: "UAF via reloaded pointer",
			build: func() *prog.Program {
				pb := prog.NewProgram()
				f := pb.Function("main", 0)
				cell := f.MallocType(prog.PtrTo(prog.Char()))
				b := f.MallocBytes(64)
				f.Store(cell, 0, b, prog.PtrTo(prog.Char()))
				f.Free(b)
				reloaded := f.Load(cell, 0, prog.PtrTo(prog.Char()))
				f.Store(reloaded, 0, f.Const(1), prog.Char())
				f.RetVoid()
				return pb.MustBuild()
			},
			want: map[Name]outcome{
				Native: clean, CECSan: report, ASan: report, ASanLite: report,
				HWASan: report, SoftBound: clean, PACMem: report, CryptSan: report,
			},
		},
		{
			// UAF after the quarantine has been flushed by heavy allocation
			// and the chunk reused by a new object: ASan's poison is gone;
			// identity-based tools still catch it. A small allocation first
			// claims the freed metadata entry so the stale tag resolves to
			// different bounds (otherwise CECSan hits its documented
			// same-index residual case).
			name: "UAF after quarantine flush",
			build: func() *prog.Program {
				pb := prog.NewProgram()
				f := pb.Function("main", 0)
				b := f.MallocBytes(1 << 20)
				f.Free(b)
				small := f.MallocBytes(32) // claims b's recycled table entry
				// Churn >8 MiB through a different size class to evict b
				// from ASan's quarantine without touching b's chunk.
				f.ForRange(prog.ConstOperand(0), prog.ConstOperand(20), 1, func(i prog.Reg) {
					c := f.MallocBytes(1<<20 + 16)
					f.Store(c, 0, i, prog.Int64T())
					f.Free(c)
				})
				keep := f.MallocBytes(1 << 20) // lands on b's chunk, unpoisons it
				f.Store(b, 8, f.Const(7), prog.Int64T())
				f.Free(keep)
				f.Free(small)
				f.RetVoid()
				return pb.MustBuild()
			},
			want: map[Name]outcome{
				Native: clean, CECSan: report, ASan: clean, ASanLite: clean,
				HWASan: report, SoftBound: report, PACMem: report, CryptSan: report,
			},
		},
		{
			// Double free, immediate: everyone.
			name: "double free",
			build: func() *prog.Program {
				pb := prog.NewProgram()
				f := pb.Function("main", 0)
				b := f.MallocBytes(64)
				f.Free(b)
				f.Free(b)
				f.RetVoid()
				return pb.MustBuild()
			},
			want: map[Name]outcome{
				Native: clean, CECSan: report, ASan: report, ASanLite: report,
				HWASan: report, SoftBound: report, PACMem: report, CryptSan: report,
			},
		},
		{
			// Free of an interior pointer: HWASan's tag check passes (same
			// object, same tag) — its 0% CWE761 row.
			name: "invalid free interior",
			build: func() *prog.Program {
				pb := prog.NewProgram()
				f := pb.Function("main", 0)
				b := f.MallocBytes(64)
				f.Free(f.OffsetPtr(b, 16))
				f.RetVoid()
				return pb.MustBuild()
			},
			want: map[Name]outcome{
				Native: clean, CECSan: report, ASan: report, ASanLite: report,
				HWASan: clean, SoftBound: report, PACMem: report, CryptSan: report,
			},
		},
		{
			// Stack buffer overflow via memset: stack protection everywhere
			// except the wide gaps don't apply here.
			name: "stack overflow via libc",
			build: func() *prog.Program {
				pb := prog.NewProgram()
				f := pb.Function("main", 0)
				buf := f.Alloca(prog.ArrayOf(prog.Char(), 32))
				f.Libc("memset", buf, f.Const(0x42), f.Const(40))
				f.RetVoid()
				return pb.MustBuild()
			},
			want: map[Name]outcome{
				Native: clean, CECSan: report, ASan: report, ASanLite: report,
				HWASan: report, SoftBound: clean, PACMem: report, CryptSan: report,
			},
		},
		{
			// Global buffer overflow crossing a tag granule: everyone
			// except SoftBound, whose released memset wrapper is missing.
			name: "global overflow cross-granule",
			build: func() *prog.Program {
				pb := prog.NewProgram()
				pb.Global("g", prog.ArrayOf(prog.Char(), 24))
				f := pb.Function("main", 0)
				g := f.GlobalAddr("g")
				f.Libc("memset", g, f.Const(1), f.Const(40))
				f.RetVoid()
				return pb.MustBuild()
			},
			want: map[Name]outcome{
				Native: clean, CECSan: report, ASan: report, ASanLite: report,
				HWASan: report, SoftBound: clean, PACMem: report, CryptSan: report,
			},
		},
		{
			// Global off-by-one inside the object's last 16-byte granule:
			// HWASan's uniform tag cannot see it; SoftBound's memset
			// wrapper is missing.
			name: "global overflow intra-granule",
			build: func() *prog.Program {
				pb := prog.NewProgram()
				pb.Global("g", prog.ArrayOf(prog.Char(), 24))
				f := pb.Function("main", 0)
				g := f.GlobalAddr("g")
				f.Libc("memset", g, f.Const(1), f.Const(25))
				f.RetVoid()
				return pb.MustBuild()
			},
			want: map[Name]outcome{
				Native: clean, CECSan: report, ASan: report, ASanLite: report,
				HWASan: clean, SoftBound: clean, PACMem: report, CryptSan: report,
			},
		},
	}

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			p := sc.build()
			for san, want := range sc.want {
				got := runUnder(t, p, san)
				if got != want {
					names := map[outcome]string{clean: "clean", report: "report", crash: "crash"}
					t.Errorf("%s: got %s, want %s", san, names[got], names[want])
				}
			}
		})
	}
}

// TestGoodProgramsNoFalsePositives runs benign programs under every
// sanitizer except the deliberately flawed SoftBound prototype model.
func TestGoodProgramsNoFalsePositives(t *testing.T) {
	builds := map[string]func() *prog.Program{
		"heap exact fill": func() *prog.Program {
			pb := prog.NewProgram()
			f := pb.Function("main", 0)
			b := f.MallocBytes(64)
			f.Libc("memset", b, f.Const(7), f.Const(64))
			f.Free(b)
			return pb.MustBuild()
		},
		"loop sweep": func() *prog.Program {
			pb := prog.NewProgram()
			f := pb.Function("main", 0)
			arr := prog.ArrayOf(prog.Int64T(), 128)
			b := f.MallocType(arr)
			f.ForRange(prog.ConstOperand(0), prog.ConstOperand(128), 1, func(i prog.Reg) {
				f.Store(f.ElemPtr(b, prog.Int64T(), i), 0, i, prog.Int64T())
			})
			f.Free(b)
			return pb.MustBuild()
		},
		"struct field use": func() *prog.Program {
			st := prog.StructOf("S",
				prog.FieldSpec{Name: "buf", Type: prog.ArrayOf(prog.Char(), 16)},
				prog.FieldSpec{Name: "len", Type: prog.Int64T()},
			)
			pb := prog.NewProgram()
			pb.GlobalBytes("src", make([]byte, 16))
			f := pb.Function("main", 0)
			obj := f.MallocType(st)
			fp := f.FieldPtr(obj, st, "buf")
			f.Libc("memcpy", fp, f.GlobalAddr("src"), f.Const(16))
			f.Store(f.FieldPtr(obj, st, "len"), 0, f.Const(16), prog.Int64T())
			f.Free(obj)
			return pb.MustBuild()
		},
		"alloc free churn": func() *prog.Program {
			pb := prog.NewProgram()
			f := pb.Function("main", 0)
			f.ForRange(prog.ConstOperand(0), prog.ConstOperand(200), 1, func(i prog.Reg) {
				b := f.MallocBytes(48)
				f.Store(b, 40, i, prog.Int64T())
				f.Free(b)
			})
			return pb.MustBuild()
		},
		"wide char legal": func() *prog.Program {
			pb := prog.NewProgram()
			f := pb.Function("main", 0)
			dst := f.MallocType(prog.ArrayOf(prog.WChar(), 8))
			src := f.MallocType(prog.ArrayOf(prog.WChar(), 8))
			f.Libc("wmemset", src, f.Const('B'), f.Const(7))
			f.Libc("wcsncpy", dst, src, f.Const(8))
			f.Free(dst)
			f.Free(src)
			return pb.MustBuild()
		},
	}
	for name, build := range builds {
		p := build()
		for _, san := range All() {
			if got := runUnder(t, p, san); got != clean {
				t.Errorf("%s under %s: not clean (outcome %d)", name, san, got)
			}
		}
	}
}

// TestSoftBoundStrncpyFalsePositive pins the modelled prototype flaw: an
// exactly-sized strncpy is reported by SoftBound but by no one else.
func TestSoftBoundStrncpyFalsePositive(t *testing.T) {
	pb := prog.NewProgram()
	pb.GlobalBytes("src", []byte("0123456"))
	f := pb.Function("main", 0)
	dst := f.MallocBytes(8)
	f.Libc("strncpy", dst, f.GlobalAddr("src"), f.Const(8))
	f.Free(dst)
	p := pb.MustBuild()

	if got := runUnder(t, p, SoftBound); got != report {
		t.Errorf("SoftBound: expected the off-by-one wrapper false positive, got %d", got)
	}
	for _, san := range []Name{CECSan, ASan, HWASan, PACMem} {
		if got := runUnder(t, p, san); got != clean {
			t.Errorf("%s: false positive on exact strncpy", san)
		}
	}
}

func TestProfileForMatchesConstructedBundles(t *testing.T) {
	for _, name := range All() {
		p, err := ProfileFor(name)
		if err != nil {
			t.Fatalf("ProfileFor(%s): %v", name, err)
		}
		san, err := New(name)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if p != san.Profile {
			t.Errorf("%s: ProfileFor diverges from constructed bundle:\n got %+v\nwant %+v",
				name, p, san.Profile)
		}
	}
	if _, err := ProfileFor("bogus"); err == nil {
		t.Error("ProfileFor accepted an unknown name")
	}
}

// Base must invert Hardened exactly: every hardened variant steps back down
// to its default-profile base, and nothing else claims to.
func TestBaseInvertsHardened(t *testing.T) {
	for _, n := range All() {
		h, ok := Hardened(n)
		if !ok {
			if b, down := Base(n); down || b != n {
				t.Errorf("Base(%s) = (%s, %v), want identity for unhardened tool", n, b, down)
			}
			continue
		}
		b, down := Base(h)
		if !down || b != n {
			t.Errorf("Base(Hardened(%s)) = (%s, %v), want (%s, true)", n, b, down, n)
		}
	}
	if b, down := Base(CECSan); down || b != CECSan {
		t.Errorf("Base(CECSan) = (%s, %v), want identity", b, down)
	}
}

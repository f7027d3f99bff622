package instrument_test

import (
	"testing"

	"cecsan/csrc"
	"cecsan/internal/fuzz"
	"cecsan/internal/instrument"
	"cecsan/internal/juliet"
	"cecsan/internal/rt"
	"cecsan/internal/sanitizers"
	"cecsan/internal/specsim"
	"cecsan/internal/splitmix"
	"cecsan/prog"
)

// registered lists every sanitizer the registry can build: the Table II
// columns and the hardened variants.
func registered() []sanitizers.Name {
	return append(sanitizers.All(), sanitizers.CECSanHardened, sanitizers.PACMemHardened, sanitizers.CryptSanHardened)
}

// configSample is a Juliet sample (every CWE's first cases, bad and good
// variants), the fuzz programs generated from a fixed seed that compile, and
// the specsim smoke programs, whose loops the optimizations rewrite, and a
// loop whose invariant store check only a profile without RedzoneBased
// hoists.
func configSample(t *testing.T) []*prog.Program {
	t.Helper()
	var progs []*prog.Program
	for _, cwe := range juliet.AllCWEs() {
		cs, err := juliet.Generate(cwe, 40)
		if err != nil {
			t.Fatalf("juliet.Generate(%v): %v", cwe, err)
		}
		for _, c := range cs {
			progs = append(progs, c.Bad, c.Good)
		}
	}
	for i := uint64(0); i < 60; i++ {
		c := fuzz.Generate(splitmix.Derive(0xC0F1, i))
		if p, err := csrc.Compile(c.Source); err == nil {
			progs = append(progs, p)
		}
	}
	for _, w := range specsim.Smoke() {
		progs = append(progs, w.Build())
	}
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	buf := f.MallocBytes(64)
	f.ForRange(prog.ConstOperand(0), prog.ConstOperand(8), 1, func(i prog.Reg) {
		f.Store(buf, 0, i, prog.Int64T())
	})
	f.RetVoid()
	return append(progs, pb.MustBuild())
}

// TestConfigKeepsOutput requires every registered sanitizer's profile, and
// the same profile with all four optimizations on and a non-default check
// step, to instrument every sample program alike whether the pass reads the
// profile as given or its Config: Config keeps every field the pass reads.
func TestConfigKeepsOutput(t *testing.T) {
	progs := configSample(t)
	for _, tool := range registered() {
		prof, err := sanitizers.ProfileFor(tool)
		if err != nil {
			t.Fatal(err)
		}
		allOpts := prof
		allOpts.OptRedundant, allOpts.OptLoopInvariant, allOpts.OptMonotonic, allOpts.OptTypeBased = true, true, true, true
		allOpts.CheckStep = 3
		for _, pr := range []rt.Profile{prof, allOpts} {
			cfg := instrument.Config(pr)
			if instrument.Config(cfg) != cfg {
				t.Errorf("%s: Config is not idempotent: %+v", tool, cfg)
			}
			for i, p := range progs {
				if a, b := instrument.ApplyUnprojected(p, pr).Fingerprint(), instrument.Apply(p, pr).Fingerprint(); a != b {
					t.Fatalf("%s %+v: program %d instruments to %s under the profile and to %s under its Config", tool, pr, i, a, b)
				}
			}
		}
	}
}

// TestConfigSharesPasses pins the tool pairs whose instrumentation is the
// same pass, so one cache entry serves both.
func TestConfigSharesPasses(t *testing.T) {
	for _, pair := range [][2]sanitizers.Name{
		{sanitizers.HWASan, sanitizers.ASan},
		{sanitizers.CECSan, sanitizers.CECSanHardened},
	} {
		a, err := sanitizers.ProfileFor(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := sanitizers.ProfileFor(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if instrument.Config(a) != instrument.Config(b) {
			t.Errorf("%s and %s have different configs:\n%+v\n%+v", pair[0], pair[1], instrument.Config(a), instrument.Config(b))
		}
	}
}

// TestApplyStoresExactSize requires instrumented code and globals to carry
// no spare capacity, for every registered sanitizer over the sample.
func TestApplyStoresExactSize(t *testing.T) {
	progs := configSample(t)
	for _, tool := range registered() {
		prof, err := sanitizers.ProfileFor(tool)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range progs {
			ip := instrument.Apply(p, prof)
			if cap(ip.Globals) != len(ip.Globals) {
				t.Fatalf("%s: program %d globals len %d cap %d", tool, i, len(ip.Globals), cap(ip.Globals))
			}
			for _, f := range ip.Funcs {
				if cap(f.Code) != len(f.Code) {
					t.Fatalf("%s: program %d func %s code len %d cap %d", tool, i, f.Name, len(f.Code), cap(f.Code))
				}
			}
		}
	}
}

// TestApplySharesUnchangedGlobals requires the instrumented copy to share
// the source's global table when global tracking changes no AddressTaken
// bit, and to copy it, leaving the source untouched, when it does.
func TestApplySharesUnchangedGlobals(t *testing.T) {
	build := func(escape bool) *prog.Program {
		pb := prog.NewProgram()
		pb.Global("flag", prog.Int())
		pb.Global("buf", prog.ArrayOf(prog.Char(), 32))
		f := pb.Function("main", 0)
		f.Store(f.GlobalAddr("flag"), 0, f.Const(1), prog.Int())
		if escape {
			f.Libc("memset", f.GlobalAddr("buf"), f.Const(0), f.Const(32))
		}
		f.RetVoid()
		return pb.MustBuild()
	}
	prof, err := sanitizers.ProfileFor(sanitizers.CECSan)
	if err != nil {
		t.Fatal(err)
	}
	if !prof.TrackGlobals {
		t.Fatal("CECSan's profile no longer tracks globals; pick a profile that does")
	}

	p := build(false)
	if ip := instrument.Apply(p, prof); &ip.Globals[0] != &p.Globals[0] {
		t.Error("no AddressTaken bit flipped, yet the instrumented copy has its own global table")
	}

	p = build(true)
	ip := instrument.Apply(p, prof)
	if &ip.Globals[0] == &p.Globals[0] {
		t.Fatal("global tracking marked buf unsafe in a table shared with the source")
	}
	if p.Globals[1].AddressTaken || !ip.Globals[1].AddressTaken {
		t.Errorf("buf AddressTaken: source %v, instrumented %v; want false, true", p.Globals[1].AddressTaken, ip.Globals[1].AddressTaken)
	}
}

package juliet

import (
	"testing"

	"cecsan/internal/instrument"
	"cecsan/internal/interp"
	"cecsan/internal/sanitizers"
	"cecsan/prog"
)

func TestTableICounts(t *testing.T) {
	counts := TableI()
	total := 0
	for _, cwe := range AllCWEs() {
		n, ok := counts[cwe]
		if !ok || n <= 0 {
			t.Fatalf("no count for %v", cwe)
		}
		total += n
	}
	if total != TotalCases {
		t.Fatalf("TableI total = %d, want %d", total, TotalCases)
	}
}

func TestGenerateExactCountsAndUniqueIDs(t *testing.T) {
	for _, cwe := range AllCWEs() {
		n := 64
		cases, err := Generate(cwe, n)
		if err != nil {
			t.Fatalf("Generate(%v): %v", cwe, err)
		}
		if len(cases) != n {
			t.Fatalf("%v: got %d cases, want %d", cwe, len(cases), n)
		}
		ids := make(map[string]bool, n)
		for _, cs := range cases {
			if ids[cs.ID] {
				t.Fatalf("%v: duplicate case ID %q", cwe, cs.ID)
			}
			ids[cs.ID] = true
			if cs.Good == nil || cs.Bad == nil {
				t.Fatalf("%s: missing program", cs.ID)
			}
			if cs.CWE != cwe {
				t.Fatalf("%s: CWE mismatch", cs.ID)
			}
		}
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	a, err := Generate(CWE122, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(CWE122, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("case %d: ID %q != %q", i, a[i].ID, b[i].ID)
		}
		if a[i].Good.Func("main").Dump() != b[i].Good.Func("main").Dump() {
			t.Fatalf("case %d: non-deterministic program body", i)
		}
	}
}

func TestAttributesAssigned(t *testing.T) {
	cases, err := Generate(CWE122, 400)
	if err != nil {
		t.Fatal(err)
	}
	var wide, sub, input int
	for _, cs := range cases {
		if cs.Wide {
			wide++
		}
		if cs.SubObject {
			sub++
		}
		if cs.NeedsInput {
			input++
		}
	}
	if wide == 0 || sub == 0 || input == 0 {
		t.Fatalf("attribute starvation: wide=%d sub=%d input=%d", wide, sub, input)
	}
	// Input-dependent cases must carry payloads for the bad version.
	for _, cs := range cases {
		if cs.NeedsInput && len(cs.BadInputs) == 0 {
			t.Fatalf("%s: NeedsInput without payloads", cs.ID)
		}
	}
}

func TestSubsets(t *testing.T) {
	cases, err := Generate(CWE121, 600)
	if err != nil {
		t.Fatal(err)
	}
	var pac, crypt, sb int
	for _, cs := range cases {
		if SubsetPACMem(cs) {
			pac++
		}
		if SubsetCryptSan(cs) {
			crypt++
		}
		if SubsetSoftBound(cs) {
			sb++
		}
	}
	if !(sb < crypt && crypt < pac && pac < 600) {
		t.Fatalf("subset sizes not ordered: sb=%d crypt=%d pac=%d of 600", sb, crypt, pac)
	}
}

// run executes one program+inputs under one sanitizer and reports detection.
func run(t *testing.T, p *prog.Program, inputs [][]byte, name sanitizers.Name) (detected bool, res *interp.Result) {
	t.Helper()
	san, err := sanitizers.New(name)
	if err != nil {
		t.Fatalf("sanitizers.New(%s): %v", name, err)
	}
	ip := instrument.Apply(p, san.Profile)
	m, err := interp.New(ip, san, interp.DefaultOptions())
	if err != nil {
		t.Fatalf("interp.New: %v", err)
	}
	for _, in := range inputs {
		m.Feed(in)
	}
	res = m.Run()
	if res.Err != nil {
		t.Fatalf("%s: execution error: %v", name, res.Err)
	}
	return res.Violation != nil || res.Fault != nil, res
}

// TestCECSanPerfectOnSample is the heart of Table II's CECSan column: on a
// stratified sample of every CWE, CECSan detects every bad version and
// reports nothing on any good version.
func TestCECSanPerfectOnSample(t *testing.T) {
	for _, cwe := range AllCWEs() {
		cases, err := Generate(cwe, 160)
		if err != nil {
			t.Fatalf("Generate(%v): %v", cwe, err)
		}
		for _, cs := range cases {
			if det, res := run(t, cs.Bad, cs.BadInputs, sanitizers.CECSan); !det {
				t.Errorf("%s: bad version not detected (%+v)", cs.ID, res.Stats)
			}
			if det, res := run(t, cs.Good, cs.GoodInputs, sanitizers.CECSan); det {
				t.Errorf("%s: FALSE POSITIVE on good version: %v%v", cs.ID, res.Violation, res.Fault)
			}
		}
	}
}

// TestNoFalsePositivesOnSample: the good versions must be clean under every
// comparator except the deliberately flawed SoftBound prototype model.
func TestNoFalsePositivesOnSample(t *testing.T) {
	sans := []sanitizers.Name{sanitizers.ASan, sanitizers.ASanLite, sanitizers.HWASan, sanitizers.PACMem, sanitizers.CryptSan}
	for _, cwe := range AllCWEs() {
		cases, err := Generate(cwe, 60)
		if err != nil {
			t.Fatalf("Generate(%v): %v", cwe, err)
		}
		for _, cs := range cases {
			for _, name := range sans {
				if det, res := run(t, cs.Good, cs.GoodInputs, name); det {
					t.Errorf("%s under %s: FALSE POSITIVE: %v%v", cs.ID, name, res.Violation, res.Fault)
				}
			}
		}
	}
}

// TestComparatorsMissTheirBlindSpots spot-checks that the per-design gaps
// actually appear in generated cases (Table II's mechanism).
func TestComparatorsMissTheirBlindSpots(t *testing.T) {
	cases, err := Generate(CWE122, 400)
	if err != nil {
		t.Fatal(err)
	}
	missed := map[sanitizers.Name]int{}
	for _, cs := range cases {
		for _, name := range []sanitizers.Name{sanitizers.ASan, sanitizers.HWASan, sanitizers.PACMem} {
			if det, _ := run(t, cs.Bad, cs.BadInputs, name); !det {
				missed[name]++
			}
		}
	}
	if missed[sanitizers.ASan] == 0 {
		t.Error("ASan missed nothing on CWE122; sub-object/wide/stride shapes not working")
	}
	if missed[sanitizers.HWASan] == 0 {
		t.Error("HWASan missed nothing on CWE122")
	}
	if missed[sanitizers.PACMem] == 0 {
		t.Error("PACMem missed nothing on CWE122 (sub-object cases absent?)")
	}
	if missed[sanitizers.PACMem] >= missed[sanitizers.ASan] {
		t.Errorf("PACMem (%d) should miss fewer than ASan (%d)", missed[sanitizers.PACMem], missed[sanitizers.ASan])
	}
}

// TestHWASanMissesAllInvalidFrees pins the CWE761 = 0% row.
func TestHWASanMissesAllInvalidFrees(t *testing.T) {
	cases, err := Generate(CWE761, 120)
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range cases {
		if det, res := run(t, cs.Bad, cs.BadInputs, sanitizers.HWASan); det {
			t.Errorf("%s: HWASan detected an invalid free (%v) — CWE761 must be 0%%", cs.ID, res.Violation)
		}
	}
}

package prog_test

import (
	"testing"

	"cecsan/internal/juliet"
	"cecsan/prog"
)

// julietPrograms returns the bad and good programs of the first n cases of
// every CWE.
func julietPrograms(tb testing.TB, n int) []*prog.Program {
	tb.Helper()
	var progs []*prog.Program
	for _, cwe := range juliet.AllCWEs() {
		cs, err := juliet.Generate(cwe, n)
		if err != nil {
			tb.Fatal(err)
		}
		for _, c := range cs {
			progs = append(progs, c.Bad, c.Good)
		}
	}
	return progs
}

// BenchmarkFingerprint times a first Fingerprint call (hash and memo) on
// Juliet programs, cycling through 512 of them.
func BenchmarkFingerprint(b *testing.B) {
	progs := julietPrograms(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := progs[i%len(progs)]
		prog.ForgetFingerprint(p)
		p.Fingerprint()
	}
}

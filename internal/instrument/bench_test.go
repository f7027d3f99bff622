package instrument_test

import (
	"testing"

	"cecsan/internal/instrument"
	"cecsan/internal/juliet"
	"cecsan/internal/sanitizers"
	"cecsan/prog"
)

var applySink *prog.Program

// BenchmarkApply times instrument.Apply on Juliet programs, one sub-benchmark
// per Table II tool; one op instruments one program, cycling through the bad
// and good programs of the first 32 cases of every CWE.
func BenchmarkApply(b *testing.B) {
	var progs []*prog.Program
	for _, cwe := range juliet.AllCWEs() {
		cs, err := juliet.Generate(cwe, 32)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cs {
			progs = append(progs, c.Bad, c.Good)
		}
	}
	for _, tool := range []sanitizers.Name{
		sanitizers.CECSan, sanitizers.PACMem, sanitizers.CryptSan,
		sanitizers.HWASan, sanitizers.ASan, sanitizers.SoftBound,
	} {
		prof, err := sanitizers.ProfileFor(tool)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(tool), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				applySink = instrument.Apply(progs[i%len(progs)], prof)
			}
		})
	}
}

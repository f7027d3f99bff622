package juliet

import "testing"

// BenchmarkGenerate times Juliet program construction: one op generates the
// first 64 cases of each of the eight CWEs (512 cases, 1,024 programs).
// ns/case is the per-case cost; allocs/op counts every object built.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, cwe := range AllCWEs() {
			if _, err := Generate(cwe, 64); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64*len(AllCWEs())), "ns/case")
}

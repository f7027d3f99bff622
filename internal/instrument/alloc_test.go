// The race detector makes a sync.Pool drop Puts at random, so recycled
// scratch, and with it an exact allocation count, exists only without it.

//go:build !race

package instrument_test

import (
	"runtime/debug"
	"testing"

	"cecsan/internal/instrument"
	"cecsan/internal/juliet"
	"cecsan/internal/sanitizers"
	"cecsan/prog"
)

var funcsSink map[string]*prog.Func

// mapAllocs is the number of heap objects a Funcs map with n entries takes.
func mapAllocs(n int) int {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = string(rune('a' + i))
	}
	return int(testing.AllocsPerRun(10, func() {
		m := make(map[string]*prog.Func, n)
		for _, k := range keys {
			m[k] = nil
		}
		funcsSink = m
	}))
}

// keptObjects counts the heap objects out holds that src does not: the
// Program and its Funcs map, the global table when global tracking copied
// it, and for each function a pass changed, the Func, its code, loops and
// allocas, and its argument pool when a pass added an OpCheckPeriodic's
// argument list to it. A changed function must share its source's
// reference table, which is never counted.
func keptObjects(t *testing.T, src, out *prog.Program) int {
	n := 1 + mapAllocs(len(out.Funcs))
	if len(out.Globals) > 0 && &out.Globals[0] != &src.Globals[0] {
		n++
	}
	for name, f := range out.Funcs {
		if f == src.Funcs[name] {
			continue
		}
		n++
		for _, l := range []int{len(f.Code), len(f.Loops), len(f.Allocas)} {
			if l > 0 {
				n++
			}
		}
		if !sameSlice(f.Refs, src.Funcs[name].Refs) {
			t.Fatalf("%s does not share its source's reference table", name)
		}
		if !sameSlice(f.ArgPool, src.Funcs[name].ArgPool) {
			n++
		}
	}
	return n
}

// sameSlice reports whether a and b are the same slice of the same array.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestApplyAllocatesOnlyWhatItKeeps pins Apply's allocation budget: after a
// first call has grown the recycled working space, instrumenting a Juliet
// program under any Table II tool allocates exactly the objects the output
// keeps. The sample is every CWE's first cases, bad and good, which covers
// helper functions, loops and both global-table outcomes.
func TestApplyAllocatesOnlyWhatItKeeps(t *testing.T) {
	// A collection empties the scratch pool; its regrowth is not Apply's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var progs []*prog.Program
	for _, cwe := range juliet.AllCWEs() {
		cs, err := juliet.Generate(cwe, 12)
		if err != nil {
			t.Fatal(err)
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
			t.Fatal(err)
		}
		for i, p := range progs {
			var out *prog.Program
			got := testing.AllocsPerRun(5, func() { out = instrument.Apply(p, prof) })
			if want := keptObjects(t, p, out); int(got) != want {
				t.Fatalf("%s: program %d: Apply allocates %v objects, its output keeps %d", tool, i, got, want)
			}
		}
	}
}

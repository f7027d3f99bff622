// The race detector makes a sync.Pool drop Puts at random, so recycled
// scratch, and with it an exact allocation count, exists only without it.

//go:build !race

package prog

import (
	"runtime/debug"
	"testing"
)

var funcsSink map[string]*Func

// mapAllocs is the number of heap objects a Funcs map with n entries takes.
func mapAllocs(names []string) int {
	return int(testing.AllocsPerRun(10, func() {
		m := make(map[string]*Func, len(names))
		for _, name := range names {
			m[name] = nil
		}
		funcsSink = m
	}))
}

// allocSample builds a program with globals, a helper function, a loop,
// allocas and calls: every kind of slice Build copies out.
func allocSample() *ProgramBuilder {
	pb := NewProgram()
	pb.Global("buf", ArrayOf(Char(), 64))
	pb.GlobalInit("flag", Int(), 1)
	pb.GlobalBytes("msg", []byte("hello"))
	h := pb.Function("helper", 1)
	h.Store(h.Arg(0), 0, h.Const(7), Int64T())
	h.RetVoid()
	f := pb.Function("main", 0)
	a := f.Alloca(ArrayOf(Int64T(), 8))
	f.ForRange(ConstOperand(0), ConstOperand(8), 1, func(i Reg) {
		f.Store(f.IndexPtr(a, ArrayOf(Int64T(), 8), i), 0, i, Int64T())
	})
	f.Call("helper", a)
	f.Libc("memcpy", f.GlobalAddr("buf"), f.GlobalAddr("msg"), f.Const(6))
	f.RetVoid()
	return pb
}

// TestBuildAllocatesOnlyWhatItKeeps pins Build's allocation budget: it
// allocates the Funcs map, the function order, and one exact-size copy of
// each function's code, loops, allocas, reference table and argument pool
// and of the global table — only objects the program keeps. The builders'
// growable space is recycled.
func TestBuildAllocatesOnlyWhatItKeeps(t *testing.T) {
	// A collection empties the scratch pools; their regrowth is not Build's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 20
	pbs := make([]*ProgramBuilder, runs+1)
	for i := range pbs { // warm the free lists to this many builders
		pbs[i] = allocSample()
	}
	for _, pb := range pbs {
		pb.MustBuild()
	}
	for i := range pbs {
		pbs[i] = allocSample()
	}
	var p *Program
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		p = pbs[next].MustBuild()
		next++
	})
	want := mapAllocs(p.Order) + 1
	if len(p.Globals) > 0 {
		want++
	}
	for _, f := range p.Funcs {
		for _, n := range []int{len(f.Code), len(f.Loops), len(f.Allocas), len(f.Refs), len(f.ArgPool)} {
			if n > 0 {
				want++
			}
		}
	}
	if int(got) != want {
		t.Fatalf("Build allocates %v objects, the program keeps %d", got, want)
	}
}

// TestFingerprintAllocatesOnlyItsMemo pins a first Fingerprint call to one
// allocation, the memoized result: the encoding buffer and the type table
// are recycled.
func TestFingerprintAllocatesOnlyItsMemo(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := allocSample().MustBuild()
	p.Fingerprint()
	got := testing.AllocsPerRun(20, func() {
		p.fp.Store(nil)
		p.Fingerprint()
	})
	if got != 1 {
		t.Fatalf("a first Fingerprint allocates %v objects, want 1 (the memo)", got)
	}
}

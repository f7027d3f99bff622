package prog

import (
	"sync"
	"testing"
)

// TestLinkResolves pins the link table: call and parfor targets become
// function indices, global addresses GPT slots (indices into Globals),
// every other instruction -1, a function with nothing to resolve gets no
// table, and the result is memoized.
func TestLinkResolves(t *testing.T) {
	pb := NewProgram()
	pb.GlobalInit("first", Int(), 1)
	pb.GlobalInit("second", Int(), 2)
	leaf := pb.Function("leaf", 1)
	leaf.Ret(leaf.Arg(0))
	body := pb.Function("body", 1)
	body.Store(body.GlobalAddr("first"), 0, body.Arg(0), Int())
	body.RetVoid()
	f := pb.Function("main", 0)
	g := f.GlobalAddr("second")
	f.ParFor("body", f.Const(0), f.Const(4), 2)
	f.Ret(f.Call("leaf", f.Load(g, 0, Int())))
	p := pb.MustBuild()

	l := p.Link()
	if l != p.Link() {
		t.Fatal("Link not memoized")
	}
	if l.Entry != 2 || l.Funcs[l.Entry].Func != p.Func("main") {
		t.Fatalf("Entry = %d, want 2 (main)", l.Entry)
	}
	if l.Funcs[0].Targets != nil {
		t.Errorf("leaf has nothing to resolve but got table %v", l.Funcs[0].Targets)
	}
	want := map[Op]int32{OpGlobalAddr: 1, OpParFor: 1, OpCall: 0}
	mainLink := l.Funcs[2]
	for pc, in := range mainLink.Func.Code {
		w, ok := want[in.Op]
		if !ok {
			w = -1
		}
		if got := mainLink.Targets[pc]; got != w {
			t.Errorf("main@%d (%v %q): target %d, want %d", pc, in.Op, mainLink.Func.Sym(&in), got, w)
		}
	}
}

// TestLinkConcurrentFirstUse links one program from several goroutines at
// once, as parallel engine workers do with a shared cached program.
func TestLinkConcurrentFirstUse(t *testing.T) {
	p := buildOverflow(t, 8)
	links := make([]*Link, 8)
	var wg sync.WaitGroup
	for i := range links {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			links[i] = p.Link()
		}(i)
	}
	wg.Wait()
	for i, l := range links {
		if l.Entry != links[0].Entry || len(l.Funcs) != len(links[0].Funcs) {
			t.Fatalf("goroutine %d linked differently: %+v vs %+v", i, l, links[0])
		}
	}
}

package prog

// Link is a program's symbol resolution, computed once so the interpreter
// never looks a name up while executing: every OpCall and OpParFor callee
// becomes a function index and every OpGlobalAddr global becomes a Global
// Pointer Table slot (§II.C.3 — the GPT is an indexed table). A global's
// slot is its index in Program.Globals.
type Link struct {
	// Funcs lists the program's functions as Program.Funcs does; a
	// function index is a position in this slice.
	Funcs []LinkedFunc
	// Entry is the entry function's index, -1 when it is undefined.
	Entry int32
}

// LinkedFunc is one function with its resolution table.
type LinkedFunc struct {
	Func *Func
	// Targets holds one entry per instruction: the callee's function index
	// for OpCall and OpParFor, the global's GPT slot for OpGlobalAddr, and
	// -1 for every other instruction and for symbols that do not resolve
	// (the interpreter reports those when it executes them, as an unlinked
	// lookup would). It is nil when the function has no such instruction,
	// since nothing in it is ever looked up.
	Targets []int32
}

// Link returns the program's resolution table. It is memoized on first
// call, exactly like Fingerprint: programs are immutable after Build, so a
// program must not be mutated after its first Link call. Concurrent first calls may each compute the table;
// they compute the same one and either may be kept.
func (p *Program) Link() *Link {
	if l := p.link.Load(); l != nil {
		return l
	}
	l := p.resolve()
	p.link.Store(l)
	return l
}

func (p *Program) resolve() *Link {
	l := &Link{Funcs: make([]LinkedFunc, len(p.Funcs)), Entry: int32(p.funcIndex(p.Entry))}
	n := 0
	for i, f := range p.Funcs {
		l.Funcs[i].Func = f
		if refersToSymbols(f) {
			n += len(f.Code)
		}
	}
	if n == 0 {
		return l
	}
	// One backing array for the whole program keeps the tables at 4 bytes
	// per instruction of the functions that need one.
	all := make([]int32, n)
	for i, f := range p.Funcs {
		if !refersToSymbols(f) {
			continue
		}
		code := f.Code
		t := all[:len(code):len(code)]
		all = all[len(code):]
		for pc := range code {
			t[pc] = -1
			switch code[pc].Op {
			case OpCall, OpParFor:
				t[pc] = int32(p.funcIndex(f.Sym(&code[pc])))
			case OpGlobalAddr:
				t[pc] = int32(p.globalIndex(f.Sym(&code[pc])))
			}
		}
		l.Funcs[i].Targets = t
	}
	return l
}

// globalIndex returns the GPT slot of the global named name, -1 when there
// is none.
func (p *Program) globalIndex(name string) int {
	for i := range p.Globals {
		if p.Globals[i].Name == name {
			return i
		}
	}
	return -1
}

// refersToSymbols reports whether f has an instruction Link resolves.
func refersToSymbols(f *Func) bool {
	for i := range f.Code {
		switch f.Code[i].Op {
		case OpCall, OpParFor, OpGlobalAddr:
			return true
		}
	}
	return false
}

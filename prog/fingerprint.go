package prog

import (
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"sync"
)

// Fingerprint is a 128-bit structural hash of a program. Two programs with
// the same fingerprint are structurally identical as far as instrumentation
// and execution are concerned: same functions in the same order, same
// instructions (all operands, flags, types and symbols), same loop facts,
// same globals and initializers, same entry point. The engine's
// instrumentation cache uses it as the program half of its cache key, so
// the thousands of structurally identical Juliet flow/data variants
// instrument once per distinct shape.
type Fingerprint [16]byte

// String renders the fingerprint as hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// fpWriter encodes the program into a reusable byte buffer, which
// fingerprint then hashes in one pass. Every field is written length- or
// tag-delimited so that adjacent variable-length fields cannot alias (e.g.
// symbol "ab"+"c" vs "a"+"bc").
type fpWriter struct {
	buf []byte
	// typeIDs interns types: the first encounter encodes the full structure,
	// later ones only the assigned id. This keeps deep or widely shared
	// types (struct fields, array elements) cheap and handles aliasing.
	typeIDs map[*Type]uint64
}

var fpWriters = sync.Pool{New: func() any { return &fpWriter{typeIDs: make(map[*Type]uint64)} }}

func (w *fpWriter) int(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

func (w *fpWriter) uint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

func (w *fpWriter) str(s string) {
	w.uint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *fpWriter) bytes(b []byte) {
	w.uint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *fpWriter) bool(b bool) {
	if b {
		w.uint(1)
	} else {
		w.uint(0)
	}
}

// typ encodes a type reference structurally (kind, size, alignment, name,
// length, element, fields), interning repeats by id.
func (w *fpWriter) typ(t *Type) {
	if t == nil {
		w.uint(0)
		return
	}
	if id, ok := w.typeIDs[t]; ok {
		w.uint(1)
		w.uint(id)
		return
	}
	id := uint64(len(w.typeIDs)) + 1
	w.typeIDs[t] = id
	w.uint(2)
	w.uint(uint64(t.kind))
	w.int(t.size)
	w.int(t.align)
	w.str(t.name)
	w.int(t.length)
	w.typ(t.elem)
	w.uint(uint64(len(t.fields)))
	for _, f := range t.fields {
		w.str(f.Name)
		w.int(f.Offset)
		w.typ(f.Type)
	}
}

// instr encodes in, reading its type, symbol and arguments from f's side
// tables. The field order is part of every pinned fingerprint.
func (w *fpWriter) instr(f *Func, in *Instr) {
	w.uint(uint64(in.Op))
	w.uint(uint64(in.X))
	w.int(int64(in.Dst))
	w.int(int64(in.A))
	w.int(int64(in.B))
	w.int(in.Imm)
	w.int(in.Off)
	w.int(in.Size)
	r := f.ref(in)
	w.typ(r.Type)
	w.str(r.Sym)
	args := f.Args(in)
	w.uint(uint64(len(args)))
	for _, a := range args {
		w.int(int64(a))
	}
	w.uint(uint64(in.Flags))
}

func (w *fpWriter) operand(o Operand) {
	w.bool(o.IsConst)
	w.int(o.Const)
	w.int(int64(o.Reg))
}

// Fingerprint computes the structural hash of the program. The result is
// memoized on first call (programs are immutable after Build); a program
// must not be mutated after its first Fingerprint call.
func (p *Program) Fingerprint() Fingerprint {
	if fp := p.fp.Load(); fp != nil {
		return *fp
	}
	fp := p.fingerprint()
	p.fp.Store(&fp)
	return fp
}

func (p *Program) fingerprint() Fingerprint {
	w := fpWriters.Get().(*fpWriter)
	w.str(p.Entry)
	w.uint(uint64(len(p.Globals)))
	for i := range p.Globals {
		g := &p.Globals[i]
		w.str(g.Name)
		w.typ(g.Type)
		w.int(g.Init)
		w.bytes(g.InitBytes)
		w.bool(g.AddressTaken)
	}
	w.uint(uint64(len(p.Order)))
	for _, name := range p.Order {
		f := p.Funcs[name]
		w.str(f.Name)
		w.int(int64(f.NumParams))
		w.int(int64(f.NumRegs))
		w.uint(uint64(len(f.Code)))
		for i := range f.Code {
			w.instr(f, &f.Code[i])
		}
		w.uint(uint64(len(f.Loops)))
		for _, l := range f.Loops {
			w.int(int64(l.HeadStart))
			w.int(int64(l.HeadEnd))
			w.int(int64(l.BodyStart))
			w.int(int64(l.BodyEnd))
			w.int(int64(l.LatchEnd))
			w.int(int64(l.IndVar))
			w.operand(l.Start)
			w.operand(l.Limit)
			w.int(l.Step)
		}
	}
	fp := fnv128a(w.buf)
	w.buf = w.buf[:0]
	clear(w.typeIDs)
	fpWriters.Put(w)
	return fp
}

// fnv128a is FNV-1a with 128-bit state (hash/fnv's New128a) over b, its
// state kept in registers rather than streamed through hash.Hash.
func fnv128a(b []byte) Fingerprint {
	const (
		offsetHi = 0x6c62272e07bb0142
		offsetLo = 0x62b821756295c58d
		primeLo  = 0x13b // the prime is 2^88 + primeLo
		primeSh  = 24    // 88 - 64
	)
	hi, lo := uint64(offsetHi), uint64(offsetLo)
	for _, c := range b {
		lo ^= uint64(c)
		h, l := bits.Mul64(primeLo, lo)
		hi, lo = h+lo<<primeSh+primeLo*hi, l
	}
	var fp Fingerprint
	binary.BigEndian.PutUint64(fp[:8], hi)
	binary.BigEndian.PutUint64(fp[8:], lo)
	return fp
}

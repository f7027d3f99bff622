package interp

import (
	"math"
	"testing"
	"unsafe"

	"cecsan/internal/instrument"
	"cecsan/internal/juliet"
	"cecsan/internal/sanitizers"
	"cecsan/internal/sanitizers/nosan"
	"cecsan/internal/splitmix"
	"cecsan/prog"
)

// TestPeriodicSkipMatchesRemainder pins the divisibility filter of the
// grouped periodic check against the reference (iv-start)%mod == 0: the
// filter may only skip iterations on which the check is not due, and for
// |iv-start| and mod below 2^32 (where it is exact) it must skip every
// one of them. Covers negative distances, |d| >= 2^32, mod 1, moduli at
// and above 2^32, and the int64 extremes.
func TestPeriodicSkipMatchesRemainder(t *testing.T) {
	try := func(d, mod int64) {
		t.Helper()
		due := d%mod == 0
		skip := periodicSkip(d, periodicMagic(mod))
		if skip && due {
			t.Fatalf("d=%d mod=%d: skipped a due check", d, mod)
		}
		exact := mod >= 2 && mod < 1<<32 && d > -(1<<32) && d < 1<<32
		if exact && skip == due {
			t.Fatalf("d=%d mod=%d: filter not exact (skip=%v, due=%v)", d, mod, skip, due)
		}
	}
	mods := []int64{1, 2, 3, 4, 7, 8, 10, 12, 16, 64, 100, 255 * 255,
		1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32, 1<<32 + 1, 3 << 33, math.MaxInt64}
	// Exhaustive around zero and around the 2^32 boundary.
	for _, mod := range mods {
		for d := int64(-300); d <= 300; d++ {
			try(d, mod)
			try(d+1<<32, mod)
			try(-(1<<32)-d, mod)
		}
		try(math.MaxInt64, mod)
		try(math.MinInt64, mod)
		try(math.MinInt64+1, mod)
	}
	// Seeded random distances and moduli, multiples included.
	var ctr uint64
	next := func() uint64 { ctr++; return splitmix.Derive(0x9E71, ctr) }
	for i := 0; i < 200_000; i++ {
		mod := int64(next()%(1<<33)) + 1
		if i%4 == 0 {
			mod = int64(next()%64) + 1
		}
		var d int64
		switch i % 3 {
		case 0:
			d = int64(next()) >> (next() % 64)
		case 1:
			d = int64(next()%(1<<32)) - 1<<31
		default:
			d = mod * (int64(next()%(1<<31)) - 1<<30) // a multiple
		}
		try(d, mod)
	}
}

// TestDecodeOpSize pins the decoded op at 32 bytes.
func TestDecodeOpSize(t *testing.T) {
	if got := unsafe.Sizeof(op{}); got != 32 {
		t.Fatalf("decoded op is %d bytes, want 32", got)
	}
}

// TestBranchIntoFusedGroupRunsPlainTail enters a const+add+br latch at its
// add and a gep+load pair at its load: each tail must run as a plain
// instruction, giving the same return value and instruction count as the
// unfused decode, while the groups' heads are still decoded fused.
func TestBranchIntoFusedGroupRunsPlainTail(t *testing.T) {
	r := func(i int) prog.Reg { return prog.Reg(i) }
	code := []prog.Instr{
		0:  {Op: prog.OpConst, Dst: r(5), Imm: 10},
		1:  {Op: prog.OpConst, Dst: r(0)},
		2:  {Op: prog.OpConst, Dst: r(3)},
		3:  {Op: prog.OpConst, Dst: r(1), Imm: 1},
		4:  {Op: prog.OpBr, Imm: 9}, // into the latch's add: i = 1 first
		5:  {Op: prog.OpCmp, X: uint8(prog.CmpSGe), Dst: r(2), A: r(0), B: r(5)},
		6:  {Op: prog.OpCondBr, A: r(2), Imm: 11},
		7:  {Op: prog.OpBin, X: uint8(prog.BinAdd), Dst: r(3), A: r(3), B: r(0)},
		8:  {Op: prog.OpConst, Dst: r(1), Imm: 1},
		9:  {Op: prog.OpBin, X: uint8(prog.BinAdd), Dst: r(0), A: r(0), B: r(1)},
		10: {Op: prog.OpBr, Imm: 5},
		11: {Op: prog.OpMalloc, Dst: r(6), A: prog.NoReg, Size: 16},
		12: {Op: prog.OpConst, Dst: r(7), Imm: 7},
		13: {Op: prog.OpStore, A: r(6), B: r(7), Off: 8, Size: 8},
		14: {Op: prog.OpGEP, Dst: r(8), A: r(6), B: prog.NoReg, Off: 8},
		15: {Op: prog.OpBr, Imm: 17}, // into the gep+load pair's load
		16: {Op: prog.OpGEP, Dst: r(8), A: r(6), B: prog.NoReg},
		17: {Op: prog.OpLoad, Dst: r(9), A: r(8), Size: 8},
		18: {Op: prog.OpBin, X: uint8(prog.BinAdd), Dst: r(3), A: r(3), B: r(9)},
		19: {Op: prog.OpRet, A: r(3)},
	}
	p := &prog.Program{
		Funcs: []*prog.Func{{Name: "main", NumRegs: 10, Code: code}},
		Entry: "main",
	}
	run := func(disable bool) (*Machine, *Result) {
		opts := DefaultOptions()
		opts.DisableFusion = disable
		m, err := New(p, nosan.Sanitizer(), opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return m, m.Run()
	}
	m, fused := run(false)
	for pc, want := range map[int]opcode{5: opSGeBr, 8: opLatch, 16: opGEPLoad} {
		if got := m.code[0].ops[pc].code; got != want {
			t.Fatalf("op %d decoded as %d, want superinstruction %q", pc, got, superNames[want])
		}
	}
	_, plain := run(true)
	if !fused.Ok() || fused.Ret != 45+7 {
		t.Fatalf("fused run: ret %d, %+v; want 52", fused.Ret, fused)
	}
	if fused.Ret != plain.Ret || fused.Stats != plain.Stats {
		t.Fatalf("fused %d %+v, unfused %d %+v", fused.Ret, fused.Stats, plain.Ret, plain.Stats)
	}
}

// specLoopProgram is a 470.lbm-like stencil: a three-point read of one grid
// and a write of the other per cell, grids swapped per sweep.
func specLoopProgram(cells, iters int64) *prog.Program {
	pb := prog.NewProgram()
	f := pb.Function("main", 0)
	src := f.MallocBytes(cells * 8)
	dst := f.MallocBytes(cells * 8)
	f.ForRange(prog.ConstOperand(0), prog.ConstOperand(iters), 1, func(prog.Reg) {
		f.ForRange(prog.ConstOperand(1), prog.ConstOperand(cells-1), 1, func(i prog.Reg) {
			a := f.Load(f.ElemPtr(src, prog.Int64T(), f.Sub(i, f.Const(1))), 0, prog.Int64T())
			b := f.Load(f.ElemPtr(src, prog.Int64T(), i), 0, prog.Int64T())
			c := f.Load(f.ElemPtr(src, prog.Int64T(), f.AddImm(i, 1)), 0, prog.Int64T())
			f.Store(f.ElemPtr(dst, prog.Int64T(), i), 0, f.Add(a, f.Add(b, c)), prog.Int64T())
		})
		t := f.Mov(src)
		f.Assign(src, dst)
		f.Assign(dst, t)
	})
	v := f.Load(src, 800, prog.Int64T())
	f.Free(src)
	f.Free(dst)
	f.Ret(v)
	return pb.MustBuild()
}

// BenchmarkSpecLoop measures the decoded loop on an lbm-like stencil under
// the uninstrumented baseline and under CECSan: NewOn on a pooled bundle
// with a fresh runtime, Run, Reset. ns/instr is the dispatch cost per
// source instruction.
func BenchmarkSpecLoop(b *testing.B) {
	p := specLoopProgram(4096, 8)
	for _, tool := range []sanitizers.Name{sanitizers.Native, sanitizers.CECSan} {
		b.Run(string(tool), func(b *testing.B) {
			pr, err := sanitizers.ProfileFor(tool)
			if err != nil {
				b.Fatal(err)
			}
			ip := instrument.Apply(p, pr)
			res, err := NewResources(47)
			if err != nil {
				b.Fatal(err)
			}
			var instrs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				san, err := sanitizers.New(tool)
				if err != nil {
					b.Fatal(err)
				}
				m, err := NewOn(res, ip, san, DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				r := m.Run()
				if !r.Ok() {
					b.Fatalf("run failed: %+v", r)
				}
				instrs += r.Stats.Instructions
				res.Reset()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}

// BenchmarkDecode measures decoding one instrumented Juliet program into a
// pooled bundle, the per-machine cost the decoded form adds to NewOn.
func BenchmarkDecode(b *testing.B) {
	cs, err := juliet.Generate(juliet.AllCWEs()[0], 1)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := sanitizers.ProfileFor(sanitizers.CECSan)
	if err != nil {
		b.Fatal(err)
	}
	ip := instrument.Apply(cs[0].Bad, pr)
	res, err := NewResources(47)
	if err != nil {
		b.Fatal(err)
	}
	m := &Machine{link: ip.Link(), opts: DefaultOptions()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.decode(res)
	}
}

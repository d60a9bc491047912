package m68k

import (
	"slices"
	"testing"
)

// benchRun reports host nanoseconds per simulated instruction of
// repeated full Runs (devices polled, interrupts checked) from entry
// to HALT.
func benchRun(b *testing.B, m *Machine, entry uint32) {
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m.ClearHalt()
		m.stopped = false
		m.PC = entry
		i0 := m.Instrs
		if err := m.Run(1 << 40); err != ErrHalted {
			b.Fatal(err)
		}
		instrs += m.Instrs - i0
	}
	b.StopTimer()
	if instrs > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
	}
}

// BenchmarkStepLoop runs the canonical mixed program
// (EmitBenchProgram) — the number benchmark/ tracks as
// m68k.step_floor_ns_per_instr. The committed pre-dispatch measurement
// was 31.64 ns/instr (switch interpreter, commit b5e4f6b).
func BenchmarkStepLoop(b *testing.B) {
	m := New(Config{})
	benchRun(b, m, EmitBenchProgram(m))
}

// BenchmarkShapes prices one instruction shape at a time: sixteen
// copies of it in a DBRA loop, so ns/instr is the shape's own cost plus
// a seventeenth of the loop's. The shapes are the ones the workloads
// run most (docs/PERFORMANCE.md has the op mix) and a NOP, which has no
// body, for the price of exec's path (cSlow). A prologue run once per
// pass resets the registers a shape steps; jsr_abs+rts calls an RTS
// placed after the HALT, and trap+rte enters an RTE placed after that
// through vector 32, so each one's ns/instr is the mean of the pair.
// The MOVEC rows are the three forms sw_in and sw_out run most, the
// ones with bodies. The MOVEM rows are the register sets with bodies of
// their own, in the modes their templates use (the copy group's store
// is to (A1) there, and seven of a pass's eight to d(A1)); a MOVEM that
// loads D0, the loop counter, counts the loop in a memory cell instead
// (SUB.L #1 and a BNE in place of the DBRA).
func BenchmarkShapes(b *testing.B) {
	const cell, stack, count = 0x9000, 0x80000, 0x8000
	for _, s := range []struct {
		name string
		in   Instr
	}{
		{"nop", Instr{Op: NOP}},
		{"move.l_d1,d2", Instr{Op: MOVE, Src: D(1), Dst: D(2)}},
		{"move.l_#imm,d2", Instr{Op: MOVE, Src: Imm(7), Dst: D(2)}},
		{"add.l_d1,d2", Instr{Op: ADD, Src: D(1), Dst: D(2)}},
		{"add.l_#imm,d2", Instr{Op: ADD, Src: Imm(1), Dst: D(2)}},
		{"cmp.l_#imm,d2", Instr{Op: CMP, Src: Imm(7), Dst: D(2)}},
		{"tst.l_d2", Instr{Op: TST, Src: D(2)}},
		{"move.l_abs,d2", Instr{Op: MOVE, Src: Abs(cell), Dst: D(2)}},
		{"move.l_idx,d2", Instr{Op: MOVE, Src: Idx(-8, 0, 3, 4), Dst: D(2)}},
		{"move.l_disp,d2", Instr{Op: MOVE, Src: Disp(8, 0), Dst: D(2)}},
		{"move.l_d1,abs", Instr{Op: MOVE, Src: D(1), Dst: Abs(cell)}},
		{"add.l_(a0)+,d1", Instr{Op: ADD, Src: PostInc(0), Dst: D(1)}},
		{"tst.l_8(a0)", Instr{Op: TST, Src: Disp(8, 0)}},
		{"clr.l_4(a0)", Instr{Op: CLR, Dst: Disp(4, 0)}},
		{"move.l_a0,-(a7)", Instr{Op: MOVE, Src: A(0), Dst: PreDec(7)}},
		{"move.l_4(a0),a1", Instr{Op: MOVE, Src: Disp(4, 0), Dst: A(1)}},
		{"jsr_abs+rts", Instr{Op: JSR}},
		{"trap+rte", Instr{Op: TRAP}},
		{"move_sr,-(a7)", Instr{Op: MOVEFSR, Dst: PreDec(7)}},
		{"move_(a7)+,sr", Instr{Op: MOVETSR, Src: PostInc(7)}},
		{"movec_#imm,vbr", Instr{Op: MOVEC, Vec: CtrlVBR, Src: Imm(0)}},
		{"movec_d2,usp", Instr{Op: MOVEC, Vec: CtrlUSP, Src: D(2)}},
		{"movec_usp,d2", Instr{Op: MOVEC, Vec: CtrlUSP, Dst: D(2)}},
		{"movem.l_(a0)+,d3-d7/a3-a5", Instr{Op: MOVEM, Mask: MovemCopyRegs, Dir: 1, Src: PostInc(0)}},
		{"movem.l_d3-d7/a3-a5,(a0)", Instr{Op: MOVEM, Mask: MovemCopyRegs, Dst: Ind(0)}},
		{"movem.l_d3-d7/a3-a5,32(a0)", Instr{Op: MOVEM, Mask: MovemCopyRegs, Dst: Disp(32, 0)}},
		{"movem.l_d0-d2/a0-a2,-(a7)", Instr{Op: MOVEM, Mask: MovemIntrRegs, Dst: PreDec(7)}},
		{"movem.l_(a7)+,d0-d2/a0-a2", Instr{Op: MOVEM, Mask: MovemIntrRegs, Dir: 1, Src: PostInc(7)}},
		{"movem.l_d0-d7/a0-a6,abs", Instr{Op: MOVEM, Mask: MovemContextRegs, Dst: Abs(cell)}},
		{"movem.l_abs,d0-d7/a0-a6", Instr{Op: MOVEM, Mask: MovemContextRegs, Dir: 1, Src: Abs(cell)}},
	} {
		b.Run(s.name, func(b *testing.B) {
			m := New(Config{})
			m.D[3] = 4
			entry := m.Emit([]Instr{
				{Op: MOVE, Src: Imm(999), Dst: D(0)},
				{Op: MOVE, Src: Imm(cell), Dst: A(0)},
				{Op: MOVE, Src: Imm(stack), Dst: A(7)},
			})
			in, end := s.in, []Instr{{Op: DBRA, Src: D(0), Dst: Abs(0)}}
			if in.Op == MOVEM && in.Dir == 1 && in.Mask&1 != 0 {
				m.Emit([]Instr{{Op: MOVE, Src: Imm(1000), Dst: Abs(count)}})
				end = []Instr{{Op: SUB, Src: Imm(1), Dst: Abs(count)}, {Op: BNE}}
			}
			loop := m.CodeTop
			end[len(end)-1].Dst = Abs(loop)
			switch in.Op {
			case JSR:
				in.Dst = Abs(loop + 18) // past the sixteen, the DBRA and the HALT
			case TRAP:
				m.Poke(VecTrapBase*4, 4, loop+19) // the RTE after the RTS
			case MOVETSR: // every long a pass pops holds a supervisor SR
				for a := uint32(stack); a < stack+16*1000*4; a += 4 {
					m.Poke(a, 4, uint32(m.SR))
				}
			}
			m.Emit(slices.Concat(slices.Repeat([]Instr{in}, 16), end, []Instr{{Op: HALT}, {Op: RTS}, {Op: RTE}}))
			benchRun(b, m, entry)
		})
	}
}

// BenchmarkCopyLoop runs kio's emitCopy in its long form, inline in
// the routines that take it (eight MOVE.L (A0)+,(A1)+ and a DBRA a
// group), 1 KB per pass between two RAM buffers: a socket's receive and
// a /proc read copy this way. The dispatcher runs each group as one host
// copy (copyLoop), so ns/KB is the collapsed handler's cost, to read
// against BenchmarkMovemCopyLoop's and BenchmarkSumCopyLoop's.
func BenchmarkCopyLoop(b *testing.B) {
	benchCopy(b, func(entry uint32, passes int32) []Instr { return inlineCopyPass(clLong, entry, passes) })
}

// BenchmarkSumCopyLoop is the same 1 KB through emitCopy's summing form,
// the copy-and-checksum of a socket's send and of the receive handler's
// deposit: per group a MOVEM (A0)+ into D3-D7/A3-A5 and one out of them
// to (A1), eight ADD.L of them into D2, a LEA 32(A1),A1 and the DBRA.
func BenchmarkSumCopyLoop(b *testing.B) {
	benchCopy(b, func(entry uint32, passes int32) []Instr { return inlineCopyPass(clSum, entry, passes) })
}

// BenchmarkScanLoop runs fs_lookup's strlen, TST.B (A0)+ and a BNE
// back to it, over a 64-byte string (63 bytes and the NUL), 100 scans a
// run, and reports ns per byte read. The dispatcher runs a scan as one
// IndexByte (scanLoop).
func BenchmarkScanLoop(b *testing.B) {
	benchSearch(b, 64, func(m *Machine, entry uint32) []Instr {
		for i := uint32(0); i < 63; i++ {
			m.Poke(0x9000+i, 1, 0x21+i)
		}
		return []Instr{
			{Op: MOVE, Src: Imm(0x9000), Dst: A(0)}, // 0: one scan
			{Op: TST, Sz: 1, Src: PostInc(0)},
			{Op: BNE, Dst: Abs(entry + 1)},
		}
	})
}

// BenchmarkCompareLoop runs fs_lookup's long compare, MOVE.L -(A0),D4,
// CMP.L (A1)+,D4, a BNE out and a DBRA D3 back, over two equal 64-byte
// names, 100 compares a run, and reports ns per long compared. The
// dispatcher runs a compare as one host loop (cmpLoop).
func BenchmarkCompareLoop(b *testing.B) {
	benchSearch(b, 16, func(m *Machine, entry uint32) []Instr {
		for i := uint32(0); i < 16; i++ {
			m.Poke(0x9040-4*(i+1), 4, 0x2f64_6576+i)
			m.Poke(0xa000+4*i, 4, 0x2f64_6576+i)
		}
		return []Instr{
			{Op: MOVE, Src: Imm(0x9040), Dst: A(0)}, // 0: one compare
			{Op: MOVE, Src: Imm(0xa000), Dst: A(1)},
			{Op: MOVE, Src: Imm(15), Dst: D(3)},
			{Op: MOVE, Sz: 4, Src: PreDec(0), Dst: D(4)}, // 3
			{Op: CMP, Sz: 4, Src: PostInc(1), Dst: D(4)},
			{Op: BNE, Dst: Abs(entry + 8)}, // the HALT after the outer DBRA
			{Op: DBRA, Src: D(3), Dst: Abs(entry + 3)},
		}
	})
}

// benchSearch runs the search body emits at the start of code space,
// its first slot the loop's set-up, 100 times a run under an outer DBRA
// back to it, and reports ns per unit, a search reading units of them.
func benchSearch(b *testing.B, units int, body func(m *Machine, entry uint32) []Instr) {
	const searches = 100
	m := New(Config{})
	entry := m.CodeTop + 1
	p := body(m, entry)
	m.Emit(slices.Concat([]Instr{{Op: MOVE, Src: Imm(searches - 1), Dst: D(1)}}, p,
		[]Instr{{Op: DBRA, Src: D(1), Dst: Abs(entry)}, {Op: HALT}}))
	benchRun(b, m, entry-1)
	if m.SR&FlagZ == 0 {
		b.Fatalf("the search ended with Z clear, not at its NUL or a match")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*searches*units), "ns/unit")
}

// BenchmarkMovemCopyLoop is the same 1 KB pass the way the file and
// pipe routines run it, through emitCopy's block form: D0 = D1/32 groups
// and a JSR to kio.block_copy's shape, which saves the eight registers,
// moves eight groups a pass (per group a MOVEM (A0)+ into them and one
// out of them to d(A1), then a LEA 256(A1),A1 and the DBRA), finds no
// leftover group and restores the registers.
func BenchmarkMovemCopyLoop(b *testing.B) { benchCopy(b, movemCopyPass) }

// benchCopy runs the program pass emits at the start of code space,
// which copies 1 KB from 0x9000 to 0xa000 the given number of times.
func benchCopy(b *testing.B, pass func(entry uint32, passes int32) []Instr) {
	const passes = 100
	m := New(Config{})
	m.A[7] = 0x8000
	benchRun(b, m, m.Emit(pass(m.CodeTop, passes)))
	if m.A[0] != 0x9000+1024 || m.A[1] != 0xa000+1024 {
		b.Fatalf("the pass ended with A0 %#x and A1 %#x, not 1 KB on", m.A[0], m.A[1])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*passes), "ns/KB")
}

// inlineCopyPass is BenchmarkCopyLoop's or BenchmarkSumCopyLoop's
// program at entry: each pass 32 groups through the loop of form f.
func inlineCopyPass(f clForm, entry uint32, passes int32) []Instr {
	prog := []Instr{
		{Op: MOVE, Src: Imm(passes - 1), Dst: D(1)}, // 0
		{Op: MOVE, Src: Imm(0x9000), Dst: A(0)},     // 1: one pass
		{Op: MOVE, Src: Imm(0xa000), Dst: A(1)},
		{Op: MOVE, Src: Imm(1024/32 - 1), Dst: D(0)},
	}
	group := entry + uint32(len(prog))
	return append(append(prog, clPass(f, group, 1, 0, 1, 0, 2)...),
		Instr{Op: DBRA, Src: D(1), Dst: Abs(entry + 1)},
		Instr{Op: HALT})
}

// movemCopyPass is BenchmarkMovemCopyLoop's program at entry: each
// pass a JSR to kio.block_copy's shape.
func movemCopyPass(entry uint32, passes int32) []Instr {
	const regs = MovemCopyRegs
	prog := []Instr{
		{Op: MOVE, Src: Imm(passes - 1), Dst: D(2)}, // 0
		{Op: MOVE, Src: Imm(0x9000), Dst: A(0)},     // 1: one pass
		{Op: MOVE, Src: Imm(0xa000), Dst: A(1)},
		{Op: MOVE, Src: Imm(1024), Dst: D(1)},
		{Op: MOVE, Src: D(1), Dst: D(0)},
		{Op: LSR, Sz: 4, Src: Imm(5), Dst: D(0)},
	}
	at := func() uint32 { return entry + uint32(len(prog)) }
	prog = append(prog,
		Instr{Op: JSR, Dst: Abs(at() + 3)}, // past the JSR, the DBRA and the HALT
		Instr{Op: DBRA, Src: D(2), Dst: Abs(entry + 1)},
		Instr{Op: HALT},
		Instr{Op: MOVEM, Mask: regs, Dst: PreDec(7)},
		Instr{Op: LSR, Sz: 4, Src: Imm(3), Dst: D(0)})
	toLeft := len(prog)
	prog = append(prog,
		Instr{Op: BEQ},
		Instr{Op: SUB, Sz: 4, Src: Imm(1), Dst: D(0)})
	pass := at()
	for i := int32(0); i < 8; i++ {
		dst := Disp(32*i, 1)
		if i == 0 {
			dst = Ind(1)
		}
		prog = append(prog,
			Instr{Op: MOVEM, Mask: regs, Dir: 1, Src: PostInc(0)},
			Instr{Op: MOVEM, Mask: regs, Dst: dst})
	}
	prog = append(prog,
		Instr{Op: LEA, Src: Disp(256, 1), Dst: A(1)},
		Instr{Op: DBRA, Src: D(0), Dst: Abs(pass)})
	prog[toLeft].Dst = Abs(at())
	prog = append(prog,
		Instr{Op: MOVE, Src: D(1), Dst: D(0)},
		Instr{Op: LSR, Sz: 4, Src: Imm(5), Dst: D(0)},
		Instr{Op: AND, Sz: 4, Src: Imm(7), Dst: D(0)})
	toDone := len(prog)
	prog = append(prog,
		Instr{Op: BEQ},
		Instr{Op: SUB, Sz: 4, Src: Imm(1), Dst: D(0)})
	one := at()
	prog = append(prog,
		Instr{Op: MOVEM, Mask: regs, Dir: 1, Src: PostInc(0)},
		Instr{Op: MOVEM, Mask: regs, Dst: Ind(1)},
		Instr{Op: LEA, Src: Disp(32, 1), Dst: A(1)},
		Instr{Op: DBRA, Src: D(0), Dst: Abs(one)})
	prog[toDone].Dst = Abs(at())
	return append(prog,
		Instr{Op: MOVEM, Mask: regs, Dir: 1, Src: PostInc(7)},
		Instr{Op: RTS})
}

package m68k_test

import (
	"errors"
	"fmt"
	"testing"

	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
)

// newM builds a machine with a vector table at address 0x100, all
// vectors pointing at a HALT stub, supervisor stack at 0x8000.
func newM(t *testing.T) *m68k.Machine {
	t.Helper()
	return newMSized(t, 1<<16)
}

// newMSized is newM with size bytes of RAM.
func newMSized(t *testing.T, size uint32) *m68k.Machine {
	t.Helper()
	m := m68k.New(m68k.Config{MemSize: size})
	stub := m.Emit([]m68k.Instr{{Op: m68k.HALT}})
	m.VBR = 0x100
	for v := 0; v < m68k.NumVectors; v++ {
		m.Poke(m.VBR+uint32(v)*4, 4, stub)
	}
	m.A[7] = 0x8000
	m.SSP = 0x8000
	return m
}

// run executes starting at entry until HALT, failing the test on any
// other error.
func run(t *testing.T, m *m68k.Machine, entry uint32) {
	t.Helper()
	m.PC = entry
	if err := m.Run(10_000_000); !errors.Is(err, m68k.ErrHalted) {
		t.Fatalf("run: %v\n%s", err, where(m))
	}
}

// where renders the registers and the code around the PC, for a
// failure message.
func where(m *m68k.Machine) string {
	return fmt.Sprintf("pc=%d sr=%#04x\nd=%08x\na=%08x\n%s",
		m.PC, m.SR, m.D, m.A, m68k.Disassemble(m.Code, m.PC-min(m.PC, 4), 8))
}

func TestMoveImmediateAndFlags(t *testing.T) {
	m := newM(t)
	b := asmkit.New()
	b.MoveL(m68k.Imm(42), m68k.D(0))
	b.MoveL(m68k.Imm(0), m68k.D(1))
	b.MoveL(m68k.Imm(-7), m68k.D(2))
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[0] != 42 {
		t.Errorf("D0 = %d, want 42", m.D[0])
	}
	if m.D[1] != 0 {
		t.Errorf("D1 = %d, want 0", m.D[1])
	}
	if m.D[2] != 0xffff_fff9 {
		t.Errorf("D2 = %#x, want 0xfffffff9", m.D[2])
	}
	if m.SR&m68k.FlagN == 0 {
		t.Error("N flag not set after moving negative value")
	}
}

func TestBigEndianMemory(t *testing.T) {
	m := newM(t)
	b := asmkit.New()
	b.MoveL(m68k.Imm(0x11223344), m68k.D(0))
	b.MoveL(m68k.D(0), m68k.Abs(0x1000))
	b.MoveB(m68k.Abs(0x1000), m68k.D(1)) // high byte first: big endian
	b.MoveW(m68k.Abs(0x1002), m68k.D(2))
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[1]&0xff != 0x11 {
		t.Errorf("byte at 0x1000 = %#x, want 0x11 (big endian)", m.D[1]&0xff)
	}
	if m.D[2]&0xffff != 0x3344 {
		t.Errorf("word at 0x1002 = %#x, want 0x3344", m.D[2]&0xffff)
	}
}

func TestArithmeticFlags(t *testing.T) {
	m := newM(t)
	b := asmkit.New()
	b.MoveL(m68k.Imm(5), m68k.D(0))
	b.SubL(m68k.Imm(5), m68k.D(0)) // Z
	b.Beq("zeroOK")
	b.MoveL(m68k.Imm(1), m68k.D(7))
	b.Halt()
	b.Label("zeroOK")
	b.MoveL(m68k.Imm(3), m68k.D(1))
	b.CmpL(m68k.Imm(5), m68k.D(1)) // 3 - 5: negative, carry
	b.Bcs("borrowOK")
	b.MoveL(m68k.Imm(2), m68k.D(7))
	b.Halt()
	b.Label("borrowOK")
	b.MoveL(m68k.Imm(0), m68k.D(7))
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[7] != 0 {
		t.Errorf("flag checks failed at stage %d", m.D[7])
	}
}

func TestAddressingModes(t *testing.T) {
	m := newM(t)
	// Fill an array of 4 longs via (An)+, read back via d(An) and
	// indexed mode.
	b := asmkit.New()
	b.Lea(m68k.Abs(0x2000), 0)
	b.MoveL(m68k.Imm(10), m68k.PostInc(0))
	b.MoveL(m68k.Imm(20), m68k.PostInc(0))
	b.MoveL(m68k.Imm(30), m68k.PostInc(0))
	b.MoveL(m68k.Imm(40), m68k.PostInc(0))
	b.Lea(m68k.Abs(0x2000), 1)
	b.MoveL(m68k.Disp(8, 1), m68k.D(0)) // third element = 30
	b.MoveL(m68k.Imm(3), m68k.D(1))
	b.MoveL(m68k.Idx(0, 1, 1, 4), m68k.D(2)) // arr[3] = 40
	b.MoveL(m68k.PreDec(0), m68k.D(3))       // last written = 40
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[0] != 30 {
		t.Errorf("disp load = %d, want 30", m.D[0])
	}
	if m.D[2] != 40 {
		t.Errorf("indexed load = %d, want 40", m.D[2])
	}
	if m.D[3] != 40 {
		t.Errorf("predec load = %d, want 40", m.D[3])
	}
	if m.A[0] != 0x200c {
		t.Errorf("A0 after predec = %#x, want 0x200c", m.A[0])
	}
}

func TestDbraLoop(t *testing.T) {
	m := newM(t)
	b := asmkit.New()
	b.MoveL(m68k.Imm(0), m68k.D(0))
	b.MoveL(m68k.Imm(9), m68k.D(1)) // 10 iterations
	b.Label("loop")
	b.AddL(m68k.Imm(3), m68k.D(0))
	b.Dbra(1, "loop")
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[0] != 30 {
		t.Errorf("loop sum = %d, want 30", m.D[0])
	}
}

func TestJsrRts(t *testing.T) {
	m := newM(t)
	sub := asmkit.New()
	sub.AddL(m68k.Imm(100), m68k.D(0))
	sub.Rts()
	subAddr := sub.Link(m)

	b := asmkit.New()
	b.MoveL(m68k.Imm(1), m68k.D(0))
	b.Jsr(subAddr)
	b.Jsr(subAddr)
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[0] != 201 {
		t.Errorf("D0 = %d, want 201", m.D[0])
	}
	if m.A[7] != 0x8000 {
		t.Errorf("stack not balanced: SP = %#x", m.A[7])
	}
}

func TestMulDivAndZeroDivideTrap(t *testing.T) {
	m := newM(t)
	b := asmkit.New()
	b.MoveL(m68k.Imm(7), m68k.D(0))
	b.Mulu(m68k.Imm(6), m68k.D(0))
	b.MoveL(m68k.Imm(100), m68k.D(1))
	b.Divu(m68k.Imm(7), m68k.D(1))
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[0] != 42 {
		t.Errorf("mulu = %d, want 42", m.D[0])
	}
	if m.D[1] != 14 {
		t.Errorf("divu = %d, want 14", m.D[1])
	}

	// Division by zero vectors through VecZeroDivide.
	m2 := newM(t)
	handler := asmkit.New()
	handler.MoveL(m68k.Imm(0xdead), m68k.D(5))
	handler.Halt()
	m2.Poke(m2.VBR+uint32(m68k.VecZeroDivide)*4, 4, handler.Link(m2))
	b2 := asmkit.New()
	b2.MoveL(m68k.Imm(1), m68k.D(1))
	b2.Divu(m68k.Imm(0), m68k.D(1))
	b2.Halt()
	run(t, m2, b2.Link(m2))
	if m2.D[5] != 0xdead {
		t.Error("zero divide did not vector to handler")
	}
}

func TestTrapAndRte(t *testing.T) {
	m := newM(t)
	// TRAP #3 handler adds 1 to D0 and returns.
	h := asmkit.New()
	h.AddL(m68k.Imm(1), m68k.D(0))
	h.Rte()
	m.Poke(m.VBR+uint32(m68k.VecTrapBase+3)*4, 4, h.Link(m))

	b := asmkit.New()
	b.MoveL(m68k.Imm(0), m68k.D(0))
	b.Trap(3)
	b.Trap(3)
	b.Trap(3)
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[0] != 3 {
		t.Errorf("D0 = %d, want 3 after three traps", m.D[0])
	}
}

func TestUserSupervisorStackSwitch(t *testing.T) {
	m := newM(t)
	// Handler records the fact it ran on the supervisor stack.
	h := asmkit.New()
	h.MovecFrom(m68k.CtrlUSP, m68k.D(3)) // user SP visible from handler
	h.MoveL(m68k.A(7), m68k.D(4))        // supervisor SP
	h.Rte()
	m.Poke(m.VBR+uint32(m68k.VecTrapBase)*4, 4, h.Link(m))

	// Supervisor code drops to user state, then traps back in.
	b := asmkit.New()
	b.MoveL(m68k.Imm(0x4000), m68k.D(0))
	b.MovecTo(m68k.CtrlUSP, m68k.D(0)) // user stack at 0x4000
	// Build an exception frame by hand (push PC, then SR as a long,
	// matching what Exception pushes) and RTE into user state.
	b.MoveLabelL("user", m68k.PreDec(7))
	b.MoveL(m68k.Imm(0), m68k.PreDec(7)) // SR = 0 (user state, IPL 0)
	b.Rte()
	// User-state code:
	b.Label("user")
	b.Trap(0)
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[3] != 0x4000 {
		t.Errorf("user SP seen by handler = %#x, want 0x4000", m.D[3])
	}
	if m.D[4] == 0x4000 {
		t.Error("handler ran on the user stack")
	}
}

func TestCasSuccessAndFailure(t *testing.T) {
	m := newM(t)
	m.Poke(0x3000, 4, 7)
	b := asmkit.New()
	// Success: expect 7, swap in 9.
	b.MoveL(m68k.Imm(7), m68k.D(0))
	b.MoveL(m68k.Imm(9), m68k.D(1))
	b.Cas(4, 0, 1, m68k.Abs(0x3000))
	b.Beq("ok1")
	b.MoveL(m68k.Imm(1), m68k.D(7))
	b.Halt()
	b.Label("ok1")
	// Failure: expect 7 again (now 9), D0 must be reloaded with 9.
	b.MoveL(m68k.Imm(7), m68k.D(0))
	b.Cas(4, 0, 1, m68k.Abs(0x3000))
	b.Bne("ok2")
	b.MoveL(m68k.Imm(2), m68k.D(7))
	b.Halt()
	b.Label("ok2")
	b.MoveL(m68k.Imm(0), m68k.D(7))
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[7] != 0 {
		t.Fatalf("cas semantics failed at stage %d", m.D[7])
	}
	if got := m.Peek(0x3000, 4); got != 9 {
		t.Errorf("memory after cas = %d, want 9", got)
	}
	if m.D[0] != 9 {
		t.Errorf("Dc after failed cas = %d, want 9 (reloaded)", m.D[0])
	}
}

func TestTas(t *testing.T) {
	m := newM(t)
	b := asmkit.New()
	b.Tas(m68k.Abs(0x3000)) // first: was 0 -> Z set
	b.Beq("first")
	b.MoveL(m68k.Imm(1), m68k.D(7))
	b.Halt()
	b.Label("first")
	b.Tas(m68k.Abs(0x3000)) // second: high bit set -> N
	b.Bmi("second")
	b.MoveL(m68k.Imm(2), m68k.D(7))
	b.Halt()
	b.Label("second")
	b.MoveL(m68k.Imm(0), m68k.D(7))
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[7] != 0 {
		t.Fatalf("tas semantics failed at stage %d", m.D[7])
	}
	if m.Peek(0x3000, 1) != 0x80 {
		t.Errorf("tas byte = %#x, want 0x80", m.Peek(0x3000, 1))
	}
}

func TestMovemRoundTrip(t *testing.T) {
	m := newM(t)
	b := asmkit.New()
	for i := uint8(0); i < 8; i++ {
		b.MoveL(m68k.Imm(int32(i)*11+1), m68k.D(i))
	}
	b.Lea(m68k.Abs(0x5000), 0)
	b.MovemSave(0x00ff, m68k.Ind(0)) // save D0-D7
	for i := uint8(0); i < 8; i++ {
		b.Clr(4, m68k.D(i))
	}
	b.MovemRest(m68k.Ind(0), 0x00ff)
	b.Halt()
	run(t, m, b.Link(m))
	for i := 0; i < 8; i++ {
		want := uint32(i)*11 + 1
		if m.D[i] != want {
			t.Errorf("D%d = %d, want %d", i, m.D[i], want)
		}
	}
}

func TestBitOps(t *testing.T) {
	m := newM(t)
	b := asmkit.New()
	b.MoveB(m68k.Imm(8), m68k.Abs(0x3000))
	b.Btst(m68k.Imm(3), m68k.Abs(0x3000))
	b.Bne("set")
	b.MoveL(m68k.Imm(1), m68k.D(7))
	b.Halt()
	b.Label("set")
	b.Btst(m68k.Imm(11), m68k.Abs(0x3000)) // bit 11 of a byte is bit 3
	b.Bne("wrapped")
	b.MoveL(m68k.Imm(3), m68k.D(7))
	b.Halt()
	b.Label("wrapped")
	b.Btst(m68k.Imm(2), m68k.Abs(0x3000))
	b.Beq("clear")
	b.MoveL(m68k.Imm(2), m68k.D(7))
	b.Halt()
	b.Label("clear")
	b.MoveL(m68k.Imm(0), m68k.D(7))
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[7] != 0 {
		t.Fatalf("bit ops failed at stage %d", m.D[7])
	}
}

// TestQuaspaceProtection: in user state restricted to [0x2000, 0x3000)
// every memory operand is checked before its access — a MOVE's, and
// MOVEM's, FMOVEM's and FMOVE's one register at a time in transfer
// order, so a block that crosses either edge moves the registers before
// the edge and faults at the first one past it. The stack and the cell
// of a memory-indirect JMP or JSR are data too: a push, a pop and the
// target load outside the quaspace fault before they touch it.
func TestQuaspaceProtection(t *testing.T) {
	const (
		faulted = 0x7000                 // set by the bus-error handler, outside the quaspace
		d1, d2  = 0x12345678, 0x9abcdef0 // what D1 and D2 hold
		pattern = 0xa0000000             // | address: what every long near the edges holds
		in, out = 0x2400, 0x3800         // cells holding esc's address, inside and outside
		escaped = 0x5a5a                 // what esc leaves in D3
	)
	var esc uint32 // a routine that marks D3 and halts
	word := func(m *m68k.Machine, a uint32) uint32 { return m.Peek(a, 4) }
	notEscaped := func(m *m68k.Machine) bool { return m.D[3] != escaped }
	cases := []struct {
		name  string
		body  func(b *asmkit.Builder)
		fault bool
		ok    func(m *m68k.Machine) bool
	}{
		{"move inside", func(b *asmkit.Builder) { b.MoveL(m68k.Imm(1), m68k.Abs(0x2800)) }, false,
			func(m *m68k.Machine) bool { return word(m, 0x2800) == 1 }},
		{"move outside", func(b *asmkit.Builder) { b.MoveL(m68k.Imm(1), m68k.Abs(0x4000)) }, true,
			func(m *m68k.Machine) bool { return word(m, 0x4000) == 0 }},
		{"movem.l d1,$4000", func(b *asmkit.Builder) { b.MovemSave(0x0002, m68k.Abs(0x4000)) }, true,
			func(m *m68k.Machine) bool { return word(m, 0x4000) == 0 }},
		{"movem.l d1-d2,$2ff8", func(b *asmkit.Builder) { b.MovemSave(0x0006, m68k.Abs(0x2ff8)) }, false,
			func(m *m68k.Machine) bool { return word(m, 0x2ff8) == d1 && word(m, 0x2ffc) == d2 }},
		{"movem.l d1-d2,$2ffc", func(b *asmkit.Builder) { b.MovemSave(0x0006, m68k.Abs(0x2ffc)) }, true,
			func(m *m68k.Machine) bool { return word(m, 0x2ffc) == d1 && word(m, 0x3000) == pattern|0x3000 }},
		{"movem.l d1-d2,-(a0) from $2004", func(b *asmkit.Builder) { b.MovemSave(0x0006, m68k.PreDec(0)) }, true,
			func(m *m68k.Machine) bool {
				return word(m, 0x1ffc) == pattern|0x1ffc && word(m, 0x2000) == pattern|0x2000
			}},
		{"movem.l $2ffc,d1-d2", func(b *asmkit.Builder) { b.MovemRest(m68k.Abs(0x2ffc), 0x0006) }, true,
			func(m *m68k.Machine) bool { return m.D[1] == pattern|0x2ffc && m.D[2] == d2 }},
		{"movem.l (a0)+,d1-d2 from $1ffc", func(b *asmkit.Builder) {
			b.Lea(m68k.Abs(0x1ffc), 0)
			b.MovemRest(m68k.PostInc(0), 0x0006)
		}, true, func(m *m68k.Machine) bool { return m.D[1] == d1 && m.D[2] == d2 }},
		{"fmovem fp0-fp1,$2ff4", func(b *asmkit.Builder) { b.FmovemSave(0x03, m68k.Abs(0x2ff4)) }, true,
			func(m *m68k.Machine) bool {
				return word(m, 0x2ff4) != pattern|0x2ff4 && word(m, 0x3000) == pattern|0x3000
			}},
		{"fmovem $1ff8,fp0", func(b *asmkit.Builder) { b.FmovemRest(m68k.Abs(0x1ff8), 0x01) }, true,
			func(m *m68k.Machine) bool { return m.FP[0] == 1.5 }},
		{"fmove fp0,$3000", func(b *asmkit.Builder) { b.FmoveFrom(0, m68k.Abs(0x3000)) }, true,
			func(m *m68k.Machine) bool { return word(m, 0x3000) == pattern|0x3000 }},
		{"fmove $1ff8,fp0", func(b *asmkit.Builder) { b.FmoveTo(m68k.Abs(0x1ff8), 0) }, true,
			func(m *m68k.Machine) bool { return m.FP[0] == 1.5 }},
		{"jsr ([in])", func(b *asmkit.Builder) { b.JsrVia(m68k.Abs(in)) }, false,
			func(m *m68k.Machine) bool { return m.D[3] == escaped }},
		{"jmp ([out])", func(b *asmkit.Builder) { b.JmpVia(m68k.Abs(out)) }, true, notEscaped},
		{"jmp ([a0,d1]) to out", func(b *asmkit.Builder) {
			b.MoveL(m68k.Imm(out-0x2004), m68k.D(1))
			b.JmpVia(m68k.Idx(0, 0, 1, 1))
		}, true, notEscaped},
		{"jsr with a7 = out+4", func(b *asmkit.Builder) {
			b.Lea(m68k.Abs(out+4), 7)
			b.Jsr(esc)
		}, true, func(m *m68k.Machine) bool { return notEscaped(m) && word(m, out) == esc }},
		{"rts with a7 = out", func(b *asmkit.Builder) {
			b.Lea(m68k.Abs(out), 7)
			b.Rts()
		}, true, notEscaped},
	}
	for _, c := range cases {
		m := newM(t)
		busErr := asmkit.New()
		busErr.MoveL(m68k.Imm(1), m68k.Abs(faulted))
		busErr.Halt()
		m.Poke(m.VBR+uint32(m68k.VecBusError)*4, 4, busErr.Link(m))
		for a := uint32(0x1ff0); a < 0x3010; a += 4 {
			m.Poke(a, 4, pattern|a)
		}
		e := asmkit.New()
		e.MoveL(m68k.Imm(escaped), m68k.D(3))
		e.Halt()
		esc = e.Link(m)
		m.Poke(in, 4, esc)
		m.Poke(out, 4, esc)
		m.D[1], m.D[2], m.A[0], m.FP[0], m.FP[1] = d1, d2, 0x2004, 1.5, 2.5

		// Enter user state restricted to [0x2000, 0x3000) via a hand-built
		// frame and run the case there.
		b := asmkit.New()
		b.MoveL(m68k.Imm(0x2000), m68k.D(0))
		b.MovecTo(m68k.CtrlUBase, m68k.D(0))
		b.MoveL(m68k.Imm(0x3000), m68k.D(0))
		b.MovecTo(m68k.CtrlULimit, m68k.D(0))
		b.MoveL(m68k.Imm(0x2800), m68k.D(0))
		b.MovecTo(m68k.CtrlUSP, m68k.D(0))
		b.MoveLabelL("user", m68k.PreDec(7))
		b.MoveL(m68k.Imm(0), m68k.PreDec(7))
		b.Rte()
		b.Label("user")
		c.body(b)
		b.Halt()
		run(t, m, b.Link(m))
		if got := word(m, faulted) != 0; got != c.fault {
			t.Errorf("%s: bus error %v, want %v", c.name, got, c.fault)
		}
		if !c.ok(m) {
			t.Errorf("%s: moved the wrong registers or memory: D1=%#x D2=%#x FP0=%v", c.name, m.D[1], m.D[2], m.FP[0])
		}
	}
}

func TestTimerInterrupt(t *testing.T) {
	m := newM(t)
	timer := m68k.NewTimer(m)
	m.Attach(timer)

	h := asmkit.New()
	h.AddL(m68k.Imm(1), m68k.D(5))
	h.Rte()
	hAddr := h.Link(m)
	m.Poke(m.VBR+uint32(m68k.VecAutovector+m68k.IRQTimer)*4, 4, hAddr)

	b := asmkit.New()
	b.MoveL(m68k.Imm(500), m68k.Abs(m68k.TimerBase+m68k.TimerRegQuantum))
	b.AndSR(^uint16(7 << 8)) // unmask interrupts
	b.MoveL(m68k.Imm(100000), m68k.D(0))
	b.Label("spin")
	b.Dbra(0, "spin")
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[5] != 1 {
		t.Errorf("timer interrupt count = %d, want 1", m.D[5])
	}
}

func TestStopWaitsForInterrupt(t *testing.T) {
	m := newM(t)
	timer := m68k.NewTimer(m)
	m.Attach(timer)

	h := asmkit.New()
	h.MoveL(m68k.Imm(7), m68k.D(5))
	h.Halt()
	m.Poke(m.VBR+uint32(m68k.VecAutovector+m68k.IRQAlarm)*4, 4, h.Link(m))

	b := asmkit.New()
	b.MoveL(m68k.Imm(2000), m68k.Abs(m68k.TimerBase+m68k.TimerRegAlarm))
	b.Stop(m68k.FlagS) // supervisor, IPL 0: wait for the alarm
	b.Halt()
	start := m.Cycles
	run(t, m, b.Link(m))
	if m.D[5] != 7 {
		t.Error("alarm interrupt did not fire out of STOP")
	}
	if m.Cycles-start < 2000 {
		t.Errorf("time did not advance across STOP: %d cycles", m.Cycles-start)
	}
}

func TestStopWithNoEventsIsIdle(t *testing.T) {
	m := newM(t)
	b := asmkit.New()
	b.Stop(m68k.FlagS)
	entry := b.Link(m)
	m.PC = entry
	err := m.Run(1000)
	if !errors.Is(err, m68k.ErrIdle) {
		t.Errorf("got %v, want ErrIdle", err)
	}
}

func TestLazyFPTrap(t *testing.T) {
	m := newM(t)
	m.FPTrap = true
	// Line-F handler clears the trap flag (standing in for the
	// kernel's context-switch resynthesis) and returns to re-execute
	// the faulting instruction.
	m.RegisterService(1, func(mm *m68k.Machine) uint64 {
		mm.FPTrap = false
		return 0
	})
	h := asmkit.New()
	h.Kcall(1)
	h.AddL(m68k.Imm(1), m68k.D(5)) // count trap occurrences
	h.Rte()
	m.Poke(m.VBR+uint32(m68k.VecLineF)*4, 4, h.Link(m))

	b := asmkit.New()
	b.FmoveTo(m68k.Imm(2), 0)
	b.FmoveTo(m68k.Imm(5), 0)
	b.FmoveFrom(0, m68k.Abs(0x6000))
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[5] != 1 {
		t.Errorf("FP trap fired %d times, want exactly 1", m.D[5])
	}
	if m.FP[0] != 5 {
		t.Errorf("FP0 = %v, want 5", m.FP[0])
	}
	hi := uint64(m.Peek(0x6000, 4))<<32 | uint64(m.Peek(0x6004, 4))
	if hi == 0 {
		t.Error("fmove to memory stored nothing")
	}
}

func TestTTYDevice(t *testing.T) {
	m := newM(t)
	tty := m68k.NewTTY(m)
	m.Attach(tty)
	tty.InputString("hi", 0, 0)

	h := asmkit.New()
	h.MoveL(m68k.Abs(m68k.TTYBase+m68k.TTYRegData), m68k.D(0))
	h.MoveB(m68k.D(0), m68k.Abs(m68k.TTYBase+m68k.TTYRegData)) // echo
	h.AddL(m68k.Imm(1), m68k.D(5))
	h.Rte()
	m.Poke(m.VBR+uint32(m68k.VecAutovector+m68k.IRQTTY)*4, 4, h.Link(m))

	b := asmkit.New()
	b.AndSR(^uint16(7 << 8))
	b.MoveL(m68k.Imm(50000), m68k.D(0))
	b.Label("spin")
	b.Dbra(0, "spin")
	b.Halt()
	run(t, m, b.Link(m))
	if string(tty.Output()) != "hi" {
		t.Errorf("tty echo = %q, want \"hi\"", tty.Output())
	}
}

func TestDiskDMA(t *testing.T) {
	m := newM(t)
	disk := m68k.NewDisk(m, 16)
	m.Attach(disk)
	disk.Blocks[3] = make([]byte, m68k.DiskBlockSize)
	copy(disk.Blocks[3], "hello disk")

	h := asmkit.New()
	h.MoveL(m68k.Imm(1), m68k.D(5))
	h.Rte()
	m.Poke(m.VBR+uint32(m68k.VecAutovector+m68k.IRQDisk)*4, 4, h.Link(m))

	b := asmkit.New()
	b.MoveL(m68k.Imm(3), m68k.Abs(m68k.DiskBase+m68k.DiskRegBlock))
	b.MoveL(m68k.Imm(0x7000), m68k.Abs(m68k.DiskBase+m68k.DiskRegAddr))
	b.MoveL(m68k.Imm(1), m68k.Abs(m68k.DiskBase+m68k.DiskRegCmd))
	b.AndSR(^uint16(7 << 8))
	b.Label("wait")
	b.TstL(m68k.D(5))
	b.Beq("wait")
	b.Halt()
	run(t, m, b.Link(m))
	if got := string(m.PeekBytes(0x7000, 10)); got != "hello disk" {
		t.Errorf("DMA read = %q", got)
	}
}

func TestADSampler(t *testing.T) {
	m := newM(t)
	ad := m68k.NewAD(m)
	m.Attach(ad)

	h := asmkit.New()
	h.MoveL(m68k.Abs(m68k.ADBase+m68k.ADRegData), m68k.D(0))
	h.AddL(m68k.Imm(1), m68k.D(5))
	h.Rte()
	m.Poke(m.VBR+uint32(m68k.VecAutovector+m68k.IRQAD)*4, 4, h.Link(m))

	b := asmkit.New()
	b.MoveL(m68k.Imm(1), m68k.Abs(m68k.ADBase+m68k.ADRegCtl))
	b.AndSR(^uint16(7 << 8))
	b.Label("spin")
	b.CmpL(m68k.Imm(5), m68k.D(5))
	b.Bne("spin")
	b.MoveL(m68k.Imm(0), m68k.Abs(m68k.ADBase+m68k.ADRegCtl))
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[5] != 5 {
		t.Errorf("sample interrupts = %d, want 5", m.D[5])
	}
	if ad.Dropped != 0 {
		t.Errorf("dropped %d samples", ad.Dropped)
	}
	// At 50 MHz and 44.1 kHz the period is ~1134 cycles; five samples
	// must take at least 5 periods.
	if m.Cycles < 5*1000 {
		t.Errorf("five samples arrived implausibly fast: %d cycles", m.Cycles)
	}
}

func TestCycleAccountingMonotonicAndCharged(t *testing.T) {
	m := newM(t)
	b := asmkit.New()
	b.MoveL(m68k.Imm(1), m68k.D(0))      // register: cheap
	b.MoveL(m68k.D(0), m68k.Abs(0x3000)) // memory: charged
	b.Halt()
	entry := b.Link(m)
	m.PC = entry
	c0 := m.Cycles
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	regCost := m.Cycles - c0
	c1 := m.Cycles
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	memCost := m.Cycles - c1
	if memCost <= regCost {
		t.Errorf("memory move (%d cyc) not more expensive than register move (%d cyc)", memCost, regCost)
	}
	if m.MemRefs == 0 {
		t.Error("memory reference counter did not advance")
	}
}

func TestMicrosConversion(t *testing.T) {
	m := m68k.New(m68k.Sun3Config())
	if got := m.Micros(160); got != 10 {
		t.Errorf("160 cycles at 16 MHz = %v µs, want 10", got)
	}
	n := m68k.New(m68k.NativeConfig())
	if got := n.Micros(500); got != 10 {
		t.Errorf("500 cycles at 50 MHz = %v µs, want 10", got)
	}
}

func TestBusFaultDoubleFaultReturnsToHost(t *testing.T) {
	m := m68k.New(m68k.Config{MemSize: 1 << 12})
	// No vector table: a bus fault while vectoring must come back to
	// the host rather than loop.
	m.VBR = 0xffff_0000
	b := asmkit.New()
	b.MoveL(m68k.Imm(1), m68k.Abs(0xfff0)) // out of range
	b.Halt()
	m.PC = b.Link(m)
	err := m.Run(1000)
	var bf *m68k.BusFault
	if !errors.As(err, &bf) {
		t.Fatalf("got %v, want BusFault", err)
	}
}

func TestShifts(t *testing.T) {
	m := newM(t)
	b := asmkit.New()
	b.MoveL(m68k.Imm(1), m68k.D(0))
	b.LslL(m68k.Imm(4), m68k.D(0))
	b.MoveL(m68k.Imm(int32(-0x80000000)), m68k.D(2))
	b.LsrL(m68k.Imm(31), m68k.D(2))
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[0] != 16 {
		t.Errorf("lsl = %d", m.D[0])
	}
	if m.D[2] != 1 {
		t.Errorf("lsr = %d", m.D[2])
	}
}

func TestInterruptPriorityMasking(t *testing.T) {
	m := newM(t)
	// Handler at level 5 records; while it runs, a level-3 interrupt
	// must wait, a level-6 must preempt.
	var order []int
	m.RegisterService(10, func(mm *m68k.Machine) uint64 { order = append(order, 5); return 0 })
	m.RegisterService(11, func(mm *m68k.Machine) uint64 { order = append(order, 3); return 0 })
	m.RegisterService(12, func(mm *m68k.Machine) uint64 { order = append(order, 6); return 0 })

	h5 := asmkit.New()
	h5.Kcall(10)
	// While still at IPL 5, post levels 3 and 6.
	h5.Kcall(20)
	h5.MoveL(m68k.Imm(200), m68k.D(0))
	h5.Label("spin")
	h5.Dbra(0, "spin") // level 6 should preempt during this spin
	h5.Rte()
	m.Poke(m.VBR+uint32(m68k.VecAutovector+5)*4, 4, h5.Link(m))

	h3 := asmkit.New()
	h3.Kcall(11)
	h3.Rte()
	m.Poke(m.VBR+uint32(m68k.VecAutovector+3)*4, 4, h3.Link(m))

	h6 := asmkit.New()
	h6.Kcall(12)
	h6.Rte()
	m.Poke(m.VBR+uint32(m68k.VecAutovector+6)*4, 4, h6.Link(m))

	m.RegisterService(20, func(mm *m68k.Machine) uint64 {
		mm.PostInterrupt(3)
		mm.PostInterrupt(6)
		return 0
	})

	b := asmkit.New()
	b.AndSR(^uint16(7 << 8))
	b.Kcall(21) // post level 5
	b.MoveL(m68k.Imm(2000), m68k.D(1))
	b.Label("wait")
	b.Dbra(1, "wait")
	b.Halt()
	m.RegisterService(21, func(mm *m68k.Machine) uint64 {
		mm.PostInterrupt(5)
		return 0
	})
	run(t, m, b.Link(m))

	if len(order) != 3 {
		t.Fatalf("handler order = %v, want 3 entries", order)
	}
	if order[0] != 5 || order[1] != 6 || order[2] != 3 {
		t.Errorf("handler order = %v, want [5 6 3]", order)
	}
}

// Indexed addressing with an ADDRESS register index (Idx >= 8).
func TestARegIndex(t *testing.T) {
	m := newM(t)
	b := asmkit.New()
	b.Lea(m68k.Abs(0x4000), 0)
	b.Lea(m68k.Abs(8), 1) // index value 8 in A1
	b.MoveL(m68k.Imm(77), m68k.Operand{Mode: m68k.ModeIdx, Reg: 0, Idx: 8 + 1, Scale: 1})
	b.Halt()
	run(t, m, b.Link(m))
	if got := m.Peek(0x4008, 4); got != 77 {
		t.Errorf("a-reg indexed store: mem[0x4008] = %d", got)
	}
}

// TestMarkedNop: a mark pair around one NOP reads one instruction, and
// the NOP's cycles plus the closing mark's own: a cycle interval runs
// up to the end of its second KCALL, an instruction interval counts
// only what lies strictly between the two.
func TestMarkedNop(t *testing.T) {
	mark := m68k.Instr{Op: m68k.KCALL, Vec: m68k.SvcMark}
	run := func(prog ...m68k.Instr) *m68k.Machine {
		m := m68k.New(m68k.Config{MemSize: 1 << 16})
		m.PC = m.Emit(append(prog, m68k.Instr{Op: m68k.HALT}))
		if err := m.Run(1000); !errors.Is(err, m68k.ErrHalted) {
			t.Fatalf("run: %v", err)
		}
		return m
	}
	halt := run().Cycles
	nop, kcall := run(m68k.Instr{Op: m68k.NOP}).Cycles-halt, run(mark).Cycles-halt
	m := run(mark, m68k.Instr{Op: m68k.NOP}, mark)
	if got := m.MarkInstrs(); len(got) != 1 || got[0] != 1 {
		t.Errorf("instruction intervals %v, want [1]", got)
	}
	if got := m.Marks[1].Cycles - m.Marks[0].Cycles; got != nop+kcall {
		t.Errorf("cycle interval %d, want the NOP's %d + the KCALL's %d", got, nop, kcall)
	}
	if got := m.MarkMicros(); len(got) != 1 || got[0] != m.Micros(nop+kcall) {
		t.Errorf("microsecond intervals %v, want [%v]", got, m.Micros(nop+kcall))
	}
}

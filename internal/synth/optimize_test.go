package synth_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
	"synthesis/internal/synth"
)

func newM() *m68k.Machine {
	m := m68k.New(m68k.Config{MemSize: 1 << 16})
	stub := m.Emit([]m68k.Instr{{Op: m68k.HALT}})
	m.VBR = 0x100
	for v := 0; v < m68k.NumVectors; v++ {
		m.Poke(m.VBR+uint32(v)*4, 4, stub)
	}
	m.A[7] = 0x8000
	m.SSP = 0x8000
	return m
}

// runProgram links p on a fresh machine and runs it to completion.
func runProgram(p asmkit.Program) (*m68k.Machine, error) {
	m := newM()
	b := asmkit.FromProgram(p)
	m.PC = b.Link(m)
	err := m.Run(1_000_000)
	if errors.Is(err, m68k.ErrHalted) {
		err = nil
	}
	return m, err
}

func optimizeOf(b *asmkit.Builder) (asmkit.Program, asmkit.Program, synth.OptStats) {
	p := b.Export()
	q, st := synth.Optimize(b.Export())
	return p, q, st
}

func TestBranchToNextRemoved(t *testing.T) {
	b := asmkit.New()
	b.Bra("next")
	b.Label("next")
	b.MoveL(m68k.Imm(5), m68k.D(0))
	b.Halt()
	_, after, st := optimizeOf(b)
	if st.Removed != 1 {
		t.Errorf("removed = %d, want 1", st.Removed)
	}
	m, err := runProgram(after)
	if err != nil {
		t.Fatal(err)
	}
	if m.D[0] != 5 {
		t.Errorf("D0 = %d", m.D[0])
	}
}

func TestNopRemoval(t *testing.T) {
	b := asmkit.New()
	b.Nop()
	b.MoveL(m68k.Imm(1), m68k.D(0))
	b.Nop()
	b.Halt()
	_, after, st := optimizeOf(b)
	if st.Removed != 2 {
		t.Errorf("removed = %d, want 2", st.Removed)
	}
	if len(after.Ins) != 2 {
		t.Errorf("optimized length = %d, want 2", len(after.Ins))
	}
}

// Optimize leaves its argument intact, so a second run over the same
// Program removes what the first did and no more (it once remapped the
// caller's labels in place, and the second run deleted live code).
func TestOptimizeTwiceSameResult(t *testing.T) {
	b := asmkit.New()
	for i := 0; i < 16; i++ {
		hop, next := fmt.Sprintf("h%d", i), fmt.Sprintf("n%d", i)
		b.MoveL(m68k.Imm(int32(i)), m68k.D(0))
		b.AddL(m68k.D(0), m68k.D(1))
		b.CmpL(m68k.Imm(0), m68k.D(1))
		b.Beq(hop)
		b.MoveL(m68k.D(1), m68k.Abs(0x4000))
		b.Label(hop)
		b.Bra(next)
		b.Nop()
		b.Nop()
		b.Label(next)
	}
	b.Halt()
	p := b.Export()
	q1, st1 := synth.Optimize(p)
	q2, st2 := synth.Optimize(p)
	if st1.Removed != 48 {
		t.Errorf("first run removed %d instructions, want 48", st1.Removed)
	}
	if st1 != st2 || !reflect.DeepEqual(q1, q2) {
		t.Errorf("second run differs: removed %d then %d, %d then %d instructions left",
			st1.Removed, st2.Removed, len(q1.Ins), len(q2.Ins))
	}
	m, err := runProgram(q2)
	if err != nil {
		t.Fatal(err)
	}
	if m.D[1] != 120 || m.Peek(0x4000, 4) != 120 {
		t.Errorf("D1 = %d, mem = %d, want 120, 120", m.D[1], m.Peek(0x4000, 4))
	}
}

func TestOptimizedCodeIsShorterAndCheaper(t *testing.T) {
	// A generic-looking routine: loads invariants from memory cells,
	// computes with them. The template folds what its Env binds to
	// constants, as kernel templates do, and the specialized
	// instantiation must be strictly shorter code computing the same
	// result.
	genericEnv := synth.Env{
		"bufsize": synth.CellAt(0x4100),
		"base":    synth.CellAt(0x4104),
	}
	constEnv := synth.Env{
		"bufsize": synth.ConstOf(1024),
		"base":    synth.ConstOf(0x5000),
	}
	tmpl := func(e *synth.Emitter) {
		if e.IsConst("bufsize") && e.IsConst("base") {
			e.MoveL(m68k.Imm(int32(e.ConstVal("bufsize")*2+e.ConstVal("base"))), m68k.Abs(0x4200))
		} else {
			e.LoadHole("bufsize", m68k.D(0))
			e.Mulu(m68k.Imm(2), m68k.D(0))
			e.AddL(e.HoleOperand("base"), m68k.D(0))
			e.MoveL(m68k.D(0), m68k.Abs(0x4200))
		}
		e.Halt()
	}
	build := func(env synth.Env) asmkit.Program {
		e := synth.NewEmitter(env)
		tmpl(e)
		p, _ := synth.Optimize(e.Export())
		return p
	}
	gp := build(genericEnv)
	sp := build(constEnv)
	if len(sp.Ins) >= len(gp.Ins) {
		t.Errorf("specialized len %d not shorter than generic %d", len(sp.Ins), len(gp.Ins))
	}
	// Run both; generic needs its cells populated.
	mg := newM()
	mg.Poke(0x4100, 4, 1024)
	mg.Poke(0x4104, 4, 0x5000)
	mg.PC = asmkit.FromProgram(gp).Link(mg)
	if err := mg.Run(100000); !errors.Is(err, m68k.ErrHalted) {
		t.Fatal(err)
	}
	ms, err := runProgram(sp)
	if err != nil {
		t.Fatal(err)
	}
	want := uint32(1024*2 + 0x5000)
	if mg.Peek(0x4200, 4) != want || ms.Peek(0x4200, 4) != want {
		t.Errorf("generic=%d specialized=%d want=%d", mg.Peek(0x4200, 4), ms.Peek(0x4200, 4), want)
	}
	// The specialized version must also execute fewer cycles.
	if ms.Cycles >= mg.Cycles {
		t.Errorf("specialized cycles %d >= generic %d", ms.Cycles, mg.Cycles)
	}
}

// ---------------------------------------------------------------------
// Property test: for random programs, the optimizer preserves the
// machine state observable at HALT (registers and memory).

// What genProgram put in a program for each pass to find.
const (
	genNop     = 1 << iota // removeNops
	genBraNext             // dropBranchToNext
	genAll     = genNop | genBraNext
)

// genProgram builds a random but well-formed program from the seed:
// straight-line ALU code over D0-D7 and a scratch array, with forward
// branches and NOPs. It reports which of the gen* shapes it emitted.
func genProgram(seed int64) (asmkit.Program, int) {
	rng := rand.New(rand.NewSource(seed))
	b := asmkit.New()
	b.Lea(m68k.Abs(0x4000), 0)

	type pending struct {
		label string
		left  int
	}
	var pend []pending
	labelN := 0
	shapes := 0

	place := func() {
		kept := pend[:0]
		for _, p := range pend {
			p.left--
			if p.left <= 0 {
				b.Label(p.label)
			} else {
				kept = append(kept, p)
			}
		}
		pend = kept
	}

	n := 10 + rng.Intn(40)
	for i := 0; i < n; i++ {
		dn := uint8(rng.Intn(8))
		sn := uint8(rng.Intn(8))
		imm := int32(rng.Intn(1 << 16))
		off := int32(rng.Intn(64)) * 4
		switch rng.Intn(16) {
		case 0:
			b.MoveL(m68k.Imm(imm), m68k.D(dn))
		case 1:
			b.MoveL(m68k.D(sn), m68k.D(dn))
		case 2:
			b.MoveL(m68k.D(sn), m68k.Disp(off, 0))
		case 3:
			b.MoveL(m68k.Disp(off, 0), m68k.D(dn))
		case 4:
			b.AddL(m68k.Imm(imm), m68k.D(dn))
		case 5:
			b.SubL(m68k.D(sn), m68k.D(dn))
		case 6:
			b.AndL(m68k.Imm(imm|1), m68k.D(dn))
		case 7:
			b.OrL(m68k.D(sn), m68k.D(dn))
		case 8:
			b.EorL(m68k.Imm(imm), m68k.D(dn))
		case 9:
			b.Mulu(m68k.Imm(int32(1<<uint(rng.Intn(8)))), m68k.D(dn))
		case 10:
			b.LslL(m68k.Imm(int32(rng.Intn(31))), m68k.D(dn))
		case 11:
			b.CmpL(m68k.D(sn), m68k.D(dn))
		case 12:
			b.TstL(m68k.D(dn))
		case 13:
			// Forward conditional branch over 1-4 instructions.
			labelN++
			lbl := fmt.Sprintf("L%d", labelN)
			conds := []func(string) *asmkit.Builder{b.Beq, b.Bne, b.Bcs, b.Bcc, b.Bmi, b.Bpl}
			conds[rng.Intn(len(conds))](lbl)
			pend = append(pend, pending{label: lbl, left: 1 + rng.Intn(4)})
		case 14:
			b.Nop()
			shapes |= genNop
		case 15:
			// Forward unconditional branch: to the next instruction, or
			// over 1-3 that are unreachable unless a pending label lands
			// among them.
			labelN++
			lbl := fmt.Sprintf("L%d", labelN)
			b.Bra(lbl)
			over := rng.Intn(4)
			pend = append(pend, pending{label: lbl, left: 1 + over})
			if over == 0 {
				shapes |= genBraNext
			}
		}
		place()
	}
	for _, p := range pend {
		b.Label(p.label)
	}
	b.Halt()
	return b.Export(), shapes
}

func TestOptimizerPreservesSemantics(t *testing.T) {
	covered, removed := 0, 0
	check := func(seed int64) bool {
		p, shapes := genProgram(seed)
		again, _ := genProgram(seed)
		q, st := synth.Optimize(again)
		covered |= shapes
		removed += st.Removed
		m1, err1 := runProgram(p)
		m2, err2 := runProgram(q)
		if (err1 == nil) != (err2 == nil) {
			t.Logf("seed %d: error mismatch %v vs %v", seed, err1, err2)
			return false
		}
		for i := 0; i < 8; i++ {
			if m1.D[i] != m2.D[i] {
				t.Logf("seed %d: D%d %#x vs %#x", seed, i, m1.D[i], m2.D[i])
				return false
			}
		}
		for i := 0; i < 7; i++ {
			if m1.A[i] != m2.A[i] {
				t.Logf("seed %d: A%d %#x vs %#x", seed, i, m1.A[i], m2.A[i])
				return false
			}
		}
		for a := uint32(0x4000); a < 0x4400; a += 4 {
			if m1.Peek(a, 4) != m2.Peek(a, 4) {
				t.Logf("seed %d: mem[%#x] %#x vs %#x", seed, a, m1.Peek(a, 4), m2.Peek(a, 4))
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
	if covered != genAll || removed == 0 {
		t.Errorf("programs gave the passes shapes %#b of %#b and %d removals", covered, genAll, removed)
	}
}

func TestCreatorAccountsSizes(t *testing.T) {
	m := newM()
	c := synth.NewCreator(m)
	q := c.NewQuaject("demo")
	addr := c.Synthesize(q, "run", synth.Env{"x": synth.ConstOf(7)}, func(e *synth.Emitter) {
		e.LoadHole("x", m68k.D(0))
		e.AddL(m68k.Imm(1), m68k.D(0))
		e.Rts()
	})
	if q.Entry("run") != addr {
		t.Error("entry not recorded")
	}
	if q.Instrs == 0 || q.Bytes == 0 {
		t.Error("size accounting empty")
	}
	if c.TotalBytes != q.Bytes || c.Routines != 1 {
		t.Errorf("creator accounting: %+v", c)
	}
}

func TestCreatorChargesSynthesisTime(t *testing.T) {
	m := newM()
	c := synth.NewCreator(m)
	c.ChargeTime = true
	before := m.Cycles
	c.Synthesize(nil, "r", nil, func(e *synth.Emitter) {
		for i := 0; i < 10; i++ {
			e.Nop()
		}
		e.Rts()
	})
	if m.Cycles-before != synth.SynthesisCycles(11) {
		t.Errorf("charged %d cycles, want %d", m.Cycles-before, synth.SynthesisCycles(11))
	}
}

func TestBuilderAtPadsWithNops(t *testing.T) {
	m := newM()
	c := synth.NewCreator(m)
	base := m.AllocCode(10)
	c.Build(nil, "r").At(base, 10).Emit(func(e *synth.Emitter) {
		e.MoveL(m68k.Imm(9), m68k.D(0))
		e.Rts()
	})
	// Region beyond the routine must be NOPs, not zero-value MOVEs.
	for i := uint32(2); i < 10; i++ {
		if m.Code[base+i].Op != m68k.NOP {
			t.Fatalf("slot %d not padded: %v", i, m.Code[base+i])
		}
	}
}

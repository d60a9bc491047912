package asmkit_test

import (
	"errors"
	"testing"

	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
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

func run(t *testing.T, m *m68k.Machine, entry uint32) {
	t.Helper()
	m.PC = entry
	if err := m.Run(1_000_000); !errors.Is(err, m68k.ErrHalted) {
		t.Fatalf("run: %v", err)
	}
}

func TestLabelsResolveAcrossLinkBase(t *testing.T) {
	m := newM()
	// Pad code space so the routine links at a nonzero base: labels
	// must resolve to absolute addresses.
	m.AllocCode(37)
	b := asmkit.New()
	b.MoveL(m68k.Imm(0), m68k.D(0))
	b.Label("top")
	b.AddL(m68k.Imm(2), m68k.D(0))
	b.CmpL(m68k.Imm(10), m68k.D(0))
	b.Bne("top")
	b.Halt()
	run(t, m, b.Link(m))
	if m.D[0] != 10 {
		t.Errorf("D0 = %d, want 10", m.D[0])
	}
}

func TestDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate label did not panic")
		}
	}()
	b := asmkit.New()
	b.Label("x")
	b.Label("x")
}

func TestUndefinedLabelPanicsAtLink(t *testing.T) {
	m := newM()
	b := asmkit.New()
	b.Bra("nowhere")
	defer func() {
		if recover() == nil {
			t.Error("undefined label did not panic at link")
		}
	}()
	b.Link(m)
}

func TestMoveLabelLLoadsAbsoluteAddress(t *testing.T) {
	m := newM()
	m.AllocCode(11)
	b := asmkit.New()
	b.MoveLabelL("target", m68k.D(3))
	b.Halt()
	b.Label("target")
	b.Nop()
	base := b.Link(m)
	run(t, m, base)
	if m.D[3] != b.AddrOf("target", base) {
		t.Errorf("D3 = %d, want %d", m.D[3], b.AddrOf("target", base))
	}
}

func TestProgramExportImportRoundTrip(t *testing.T) {
	m := newM()
	b := asmkit.New()
	b.MoveL(m68k.Imm(5), m68k.D(0))
	b.Label("skip")
	b.TstL(m68k.D(0))
	b.Beq("skip") // never taken; exercises a fixup
	b.Halt()
	p := b.Export()
	if len(p.Ins) != 4 || len(p.Fixups) != 1 || p.Labels["skip"] != 1 {
		t.Fatalf("export shape: %+v", p)
	}
	b2 := asmkit.FromProgram(p)
	run(t, m, b2.Link(m))
	if m.D[0] != 5 {
		t.Errorf("round-tripped program broke: D0 = %d", m.D[0])
	}
}

func TestJmpViaFollowsCell(t *testing.T) {
	m := newM()
	t1 := asmkit.New()
	t1.MoveL(m68k.Imm(7), m68k.D(0))
	t1.Halt()
	target := t1.Link(m)
	const cell = 0x4000
	m.Poke(cell, 4, target)

	b := asmkit.New()
	b.JmpVia(m68k.Abs(cell))
	entry := b.Link(m)
	run(t, m, entry)
	if m.D[0] != 7 {
		t.Errorf("memory-indirect jmp failed: D0 = %d", m.D[0])
	}
	// Redirect by storing a new address in the cell — no code
	// modification at all.
	t2 := asmkit.New()
	t2.MoveL(m68k.Imm(9), m68k.D(0))
	t2.Halt()
	m.Poke(cell, 4, t2.Link(m))
	m.ClearHalt()
	run(t, m, entry)
	if m.D[0] != 9 {
		t.Errorf("cell-redirected jmp failed: D0 = %d", m.D[0])
	}
}

func TestLinkAtInstallsInPlace(t *testing.T) {
	m := newM()
	region := m.AllocCode(8)
	b := asmkit.New()
	b.MoveL(m68k.Imm(3), m68k.D(0))
	b.Halt()
	b.LinkAt(m, region)
	run(t, m, region)
	if m.D[0] != 3 {
		t.Errorf("LinkAt code did not run: D0 = %d", m.D[0])
	}
}

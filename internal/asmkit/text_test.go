package asmkit_test

import (
	"errors"
	"strings"
	"testing"

	"synthesis/internal/asmkit"
	"synthesis/internal/m68k"
)

func newTextM(t *testing.T) *m68k.Machine {
	t.Helper()
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

func runText(t *testing.T, m *m68k.Machine, entry uint32) {
	t.Helper()
	m.PC = entry
	if err := m.Run(1_000_000); !errors.Is(err, m68k.ErrHalted) {
		t.Fatalf("run: %v", err)
	}
}

// TestAssembleSumLoop assembles, links and runs a backward-branching
// loop and checks both a register and an absolute store.
func TestAssembleSumLoop(t *testing.T) {
	b, err := asmkit.Assemble(`
; sum the integers 1..10
        move.l  #10, d1
        clr.l   d0
loop:   add.l   d1, d0      // accumulate
        sub.l   #1, d1
        bne     loop
        move.l  d0, $9000
        halt
`)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	m := newTextM(t)
	runText(t, m, b.Link(m))
	if m.D[0] != 55 {
		t.Errorf("d0 = %d, want 55", m.D[0])
	}
	if got := m.Peek(0x9000, 4); got != 55 {
		t.Errorf("mem[0x9000] = %d, want 55", got)
	}
}

// TestAssembleAddressing exercises lea, post-increment, displacement
// and pre-decrement operands.
func TestAssembleAddressing(t *testing.T) {
	b, err := asmkit.Assemble(`
        lea     0x9100, a0
        move.l  #0x11223344, (a0)+
        move.l  #7, (a0)+
        move.l  #5, -4(a0)      ; overwrite the 7
        move.l  #9, -(a0)       ; and again, predecrementing back
        move.b  #0xFF, 0x9108
        halt
`)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	m := newTextM(t)
	runText(t, m, b.Link(m))
	if got := m.Peek(0x9100, 4); got != 0x11223344 {
		t.Errorf("mem[0x9100] = %#x, want 0x11223344", got)
	}
	if got := m.Peek(0x9104, 4); got != 9 {
		t.Errorf("mem[0x9104] = %d, want 9", got)
	}
	if got := m.Peek(0x9108, 1); got != 0xFF {
		t.Errorf("mem[0x9108] = %#x, want 0xff", got)
	}
	if m.A[0] != 0x9104 {
		t.Errorf("a0 = %#x, want 0x9104", m.A[0])
	}
}

// TestAssembleDbraJsr covers dbra loops and jsr/rts to a label.
func TestAssembleDbraJsr(t *testing.T) {
	b, err := asmkit.Assemble(`
        clr.l   d3
        move.l  #4, d2
again:  jsr     bump
        dbra    d2, again
        halt
bump:   add.l   #1, d3
        rts
`)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	m := newTextM(t)
	runText(t, m, b.Link(m))
	if m.D[3] != 5 { // dbra runs the body n+1 times
		t.Errorf("d3 = %d, want 5", m.D[3])
	}
}

// TestAssembleMatchesBuilder checks that the text front end produces
// the same instruction stream as the equivalent builder calls.
func TestAssembleMatchesBuilder(t *testing.T) {
	got, err := asmkit.Assemble(`
start:  move.l  #3, d0
        trap    #0
        kcall   #100
        cmp.l   #0, d0
        beq     start
        rte
`)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	want := asmkit.New()
	want.Label("start")
	want.MoveL(m68k.Imm(3), m68k.D(0))
	want.Trap(0)
	want.Kcall(100)
	want.CmpL(m68k.Imm(0), m68k.D(0))
	want.Beq("start")
	want.Rte()
	g, w := got.Instructions(), want.Instructions()
	if len(g) != len(w) {
		t.Fatalf("instruction count %d, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("instr %d: %+v, want %+v", i, g[i], w[i])
		}
	}
}

// TestAssembleErrors checks that malformed programs are rejected with
// positioned errors instead of link-time panics.
func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown mnemonic", "frobnicate d0, d1", "unknown mnemonic"},
		{"undefined label", "bra nowhere", "undefined label"},
		{"duplicate label", "x: nop\nx: nop", "duplicate label"},
		{"bad operand", "move.l d0, q9", "cannot parse operand"},
		{"bad arity", "move.l d0", "operand"},
		{"bad lea dst", "lea 0x1000, d0", "address register"},
		{"bad size", "move.q d0, d1", "unknown mnemonic"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := asmkit.Assemble(c.src)
			if err == nil {
				t.Fatalf("Assemble(%q) succeeded, want error", c.src)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

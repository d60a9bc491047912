// Package asmkit is the run-time assembler for Quamachine code. The
// Synthesis kernel's code synthesizer builds kernel routines with it:
// templates append instructions through a Builder, branch targets are
// symbolic labels, and Link resolves the labels and installs the
// routine into the machine's code space. Installed code is patched in
// place through the machine's PatchCode, which is how executable data
// structures (Section 2.2 of the paper) update themselves.
package asmkit

import (
	"fmt"

	"synthesis/internal/m68k"
)

// Builder accumulates instructions and symbolic branch targets.
type Builder struct {
	ins    []m68k.Instr
	labels map[string]int
	fixups []fixup
}

type fixup struct {
	idx   int    // instruction needing resolution
	label string // target label
	src   bool   // patch Src.Imm instead of Dst.Imm
}

// New creates an empty builder.
func New() *Builder {
	return &Builder{labels: make(map[string]int)}
}

// Reset empties the builder, keeping its storage, so one builder can
// serve many routines without allocating.
func (b *Builder) Reset() {
	b.ins = b.ins[:0]
	clear(b.labels)
	b.fixups = b.fixups[:0]
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.ins) }

// Label defines a branch target at the current position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		panic(fmt.Sprintf("asmkit: duplicate label %q", name))
	}
	b.labels[name] = len(b.ins)
	return b
}

// I appends a raw instruction.
func (b *Builder) I(in m68k.Instr) *Builder {
	b.ins = append(b.ins, in)
	return b
}

// branch appends a branch to a label, recording a fixup.
func (b *Builder) branch(op m68k.Op, label string) *Builder {
	b.fixups = append(b.fixups, fixup{idx: len(b.ins), label: label})
	return b.I(m68k.Instr{Op: op, Dst: m68k.Abs(0)})
}

// Instructions returns a copy of the built (unlinked) instructions.
func (b *Builder) Instructions() []m68k.Instr {
	out := make([]m68k.Instr, len(b.ins))
	copy(out, b.ins)
	return out
}

// Fixup is an unresolved reference from an instruction operand to a
// label, exported as part of a Program.
type Fixup struct {
	Idx   int
	Label string
	Src   bool
}

// Program is the portable, unlinked form of a routine: instructions
// plus symbolic label and fixup tables. The synthesizer's optimizer
// transforms Programs (it must renumber labels and fixups as it
// deletes or rewrites instructions), then converts them back into a
// Builder for linking.
type Program struct {
	Ins    []m68k.Instr
	Labels map[string]int
	Fixups []Fixup
}

// Export snapshots the builder as a Program.
func (b *Builder) Export() Program {
	p := Program{
		Ins:    b.Instructions(),
		Labels: make(map[string]int, len(b.labels)),
	}
	for k, v := range b.labels {
		p.Labels[k] = v
	}
	for _, f := range b.fixups {
		p.Fixups = append(p.Fixups, Fixup{Idx: f.idx, Label: f.label, Src: f.src})
	}
	return p
}

// FromProgram rebuilds a Builder from a Program.
func FromProgram(p Program) *Builder {
	b := New()
	b.ins = append(b.ins, p.Ins...)
	for k, v := range p.Labels {
		b.labels[k] = v
	}
	for _, f := range p.Fixups {
		b.fixups = append(b.fixups, fixup{idx: f.Idx, label: f.Label, src: f.Src})
	}
	return b
}

// Resolve returns the routine as Link would install it at base: the
// instructions with their labels resolved, without touching a machine.
func (b *Builder) Resolve(base uint32) []m68k.Instr {
	out := make([]m68k.Instr, len(b.ins))
	copy(out, b.ins)
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			panic(fmt.Sprintf("asmkit: undefined label %q", f.label))
		}
		if f.src {
			out[f.idx].Src.Imm = int32(base + uint32(target))
		} else {
			out[f.idx].Dst.Imm = int32(base + uint32(target))
		}
	}
	return out
}

// Link allocates code space on the machine, resolves labels and
// installs the routine. It returns the routine's entry address.
func (b *Builder) Link(m *m68k.Machine) uint32 {
	base := m.AllocCode(len(b.ins))
	m.SetCode(base, b.Resolve(base))
	return base
}

// LinkAt installs the routine at a previously allocated code address.
// The region must be at least Len() instructions.
func (b *Builder) LinkAt(m *m68k.Machine, base uint32) {
	m.SetCode(base, b.Resolve(base))
}

// AddrOf returns the absolute address a label will have when the
// routine is linked at base.
func (b *Builder) AddrOf(label string, base uint32) uint32 {
	target, ok := b.labels[label]
	if !ok {
		panic(fmt.Sprintf("asmkit: undefined label %q", label))
	}
	return base + uint32(target)
}

// ---------------------------------------------------------------------
// Instruction helpers. Suffixes: L = long (32), W = word (16),
// B = byte.

// Nop appends a nop.
func (b *Builder) Nop() *Builder { return b.I(m68k.Instr{Op: m68k.NOP}) }

// MoveL appends move.l src,dst.
func (b *Builder) MoveL(src, dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.MOVE, Sz: 4, Src: src, Dst: dst})
}

// MoveLabelL appends move.l #label,dst where the immediate is the
// absolute code address of a label in this routine (resolved at link
// time). Threads use it to build exception frames and vector-table
// entries that point at their own code.
func (b *Builder) MoveLabelL(label string, dst m68k.Operand) *Builder {
	b.fixups = append(b.fixups, fixup{idx: len(b.ins), label: label, src: true})
	return b.I(m68k.Instr{Op: m68k.MOVE, Sz: 4, Src: m68k.Imm(0), Dst: dst})
}

// MoveW appends move.w src,dst.
func (b *Builder) MoveW(src, dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.MOVE, Sz: 2, Src: src, Dst: dst})
}

// MoveB appends move.b src,dst.
func (b *Builder) MoveB(src, dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.MOVE, Sz: 1, Src: src, Dst: dst})
}

// Lea appends lea src,An.
func (b *Builder) Lea(src m68k.Operand, an uint8) *Builder {
	return b.I(m68k.Instr{Op: m68k.LEA, Src: src, Dst: m68k.A(an)})
}

// Clr appends clr of the given size.
func (b *Builder) Clr(sz uint8, dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.CLR, Sz: sz, Dst: dst})
}

// AddL appends add.l src,dst.
func (b *Builder) AddL(src, dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.ADD, Sz: 4, Src: src, Dst: dst})
}

// SubL appends sub.l src,dst.
func (b *Builder) SubL(src, dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.SUB, Sz: 4, Src: src, Dst: dst})
}

// Mulu appends mulu src,Dn.
func (b *Builder) Mulu(src, dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.MULU, Sz: 4, Src: src, Dst: dst})
}

// Divu appends divu src,Dn.
func (b *Builder) Divu(src, dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.DIVU, Sz: 4, Src: src, Dst: dst})
}

// AndL appends and.l src,dst.
func (b *Builder) AndL(src, dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.AND, Sz: 4, Src: src, Dst: dst})
}

// OrL appends or.l src,dst.
func (b *Builder) OrL(src, dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.OR, Sz: 4, Src: src, Dst: dst})
}

// EorL appends eor.l src,dst.
func (b *Builder) EorL(src, dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.EOR, Sz: 4, Src: src, Dst: dst})
}

// LslL appends lsl.l src,dst.
func (b *Builder) LslL(src, dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.LSL, Sz: 4, Src: src, Dst: dst})
}

// LsrL appends lsr.l src,dst.
func (b *Builder) LsrL(src, dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.LSR, Sz: 4, Src: src, Dst: dst})
}

// Cmp appends cmp of the given size (sets CCR from dst-src).
func (b *Builder) Cmp(sz uint8, src, dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.CMP, Sz: sz, Src: src, Dst: dst})
}

// CmpL appends cmp.l src,dst.
func (b *Builder) CmpL(src, dst m68k.Operand) *Builder { return b.Cmp(4, src, dst) }

// Tst appends tst of the given size.
func (b *Builder) Tst(sz uint8, src m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.TST, Sz: sz, Src: src})
}

// TstL appends tst.l src.
func (b *Builder) TstL(src m68k.Operand) *Builder { return b.Tst(4, src) }

// Btst appends btst bit,dst.
func (b *Builder) Btst(bit, dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.BTST, Sz: 1, Src: bit, Dst: dst})
}

// Tas appends tas dst (atomic test-and-set of a byte's high bit).
func (b *Builder) Tas(dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.TAS, Sz: 1, Dst: dst})
}

// Cas appends cas.sz Dc,Du,ea: the 68020 compare-and-swap underlying
// the paper's optimistic queues.
func (b *Builder) Cas(sz uint8, dc, du uint8, ea m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.CAS, Sz: sz, Src: m68k.D(dc), Fp: du, Dst: ea})
}

// Branches to labels.

// Bra appends bra label.
func (b *Builder) Bra(label string) *Builder { return b.branch(m68k.BRA, label) }

// Beq appends beq label.
func (b *Builder) Beq(label string) *Builder { return b.branch(m68k.BEQ, label) }

// Bne appends bne label.
func (b *Builder) Bne(label string) *Builder { return b.branch(m68k.BNE, label) }

// Blt appends blt label.
func (b *Builder) Blt(label string) *Builder { return b.branch(m68k.BLT, label) }

// Bhi appends bhi label (unsigned greater).
func (b *Builder) Bhi(label string) *Builder { return b.branch(m68k.BHI, label) }

// Bls appends bls label (unsigned less-or-equal).
func (b *Builder) Bls(label string) *Builder { return b.branch(m68k.BLS, label) }

// Bcc appends bcc label (unsigned greater-or-equal).
func (b *Builder) Bcc(label string) *Builder { return b.branch(m68k.BCC, label) }

// Bcs appends bcs label (unsigned less).
func (b *Builder) Bcs(label string) *Builder { return b.branch(m68k.BCS, label) }

// Bmi appends bmi label.
func (b *Builder) Bmi(label string) *Builder { return b.branch(m68k.BMI, label) }

// Bpl appends bpl label.
func (b *Builder) Bpl(label string) *Builder { return b.branch(m68k.BPL, label) }

// Dbra appends dbra Dn,label.
func (b *Builder) Dbra(dn uint8, label string) *Builder {
	b.fixups = append(b.fixups, fixup{idx: len(b.ins), label: label})
	return b.I(m68k.Instr{Op: m68k.DBRA, Src: m68k.D(dn), Dst: m68k.Abs(0)})
}

// Control transfer.

// Jmp appends jmp to an absolute code address.
func (b *Builder) Jmp(addr uint32) *Builder {
	return b.I(m68k.Instr{Op: m68k.JMP, Dst: m68k.Abs(addr)})
}

// JmpVia appends the 68020 memory-indirect jump "jmp ([cell])": the
// target is loaded at run time from the memory location the operand
// designates. The executable ready queue threads its context-switch
// chain through TTE cells with exactly this form.
func (b *Builder) JmpVia(cell m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.JMP, Src: cell})
}

// JsrVia appends the memory-indirect call "jsr ([cell])".
func (b *Builder) JsrVia(cell m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.JSR, Src: cell})
}

// Jsr appends jsr to an absolute code address.
func (b *Builder) Jsr(addr uint32) *Builder {
	return b.I(m68k.Instr{Op: m68k.JSR, Dst: m68k.Abs(addr)})
}

// Rts appends rts.
func (b *Builder) Rts() *Builder { return b.I(m68k.Instr{Op: m68k.RTS}) }

// Rte appends rte.
func (b *Builder) Rte() *Builder { return b.I(m68k.Instr{Op: m68k.RTE}) }

// Trap appends trap #n.
func (b *Builder) Trap(n uint8) *Builder {
	return b.I(m68k.Instr{Op: m68k.TRAP, Vec: n})
}

// Kcall appends a host service escape.
func (b *Builder) Kcall(id uint8) *Builder {
	return b.I(m68k.Instr{Op: m68k.KCALL, Vec: id})
}

// Stop appends stop #sr.
func (b *Builder) Stop(sr uint16) *Builder {
	return b.I(m68k.Instr{Op: m68k.STOP, Src: m68k.Imm(int32(sr))})
}

// Halt appends halt.
func (b *Builder) Halt() *Builder { return b.I(m68k.Instr{Op: m68k.HALT}) }

// Privileged state.

// MovemSave appends movem.l mask -> memory at ea.
func (b *Builder) MovemSave(mask uint16, ea m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.MOVEM, Mask: mask, Dir: 0, Dst: ea})
}

// MovemRest appends movem.l memory at ea -> mask.
func (b *Builder) MovemRest(ea m68k.Operand, mask uint16) *Builder {
	return b.I(m68k.Instr{Op: m68k.MOVEM, Mask: mask, Dir: 1, Src: ea})
}

// FmovemSave appends fmovem FP mask -> memory at ea.
func (b *Builder) FmovemSave(mask uint16, ea m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.FMOVEM, Mask: mask, Dir: 0, Dst: ea})
}

// FmovemRest appends fmovem memory at ea -> FP mask.
func (b *Builder) FmovemRest(ea m68k.Operand, mask uint16) *Builder {
	return b.I(m68k.Instr{Op: m68k.FMOVEM, Mask: mask, Dir: 1, Src: ea})
}

// MovecTo appends movec src,ctrl.
func (b *Builder) MovecTo(ctrl uint8, src m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.MOVEC, Vec: ctrl, Src: src})
}

// MovecFrom appends movec ctrl,dst.
func (b *Builder) MovecFrom(ctrl uint8, dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.MOVEC, Vec: ctrl, Dst: dst})
}

// MoveFromSR appends move sr,dst (privileged).
func (b *Builder) MoveFromSR(dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.MOVEFSR, Dst: dst})
}

// MoveToSR appends move src,sr (privileged).
func (b *Builder) MoveToSR(src m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.MOVETSR, Src: src})
}

// OrSR appends or.w #imm,sr.
func (b *Builder) OrSR(imm uint16) *Builder {
	return b.I(m68k.Instr{Op: m68k.ORSR, Src: m68k.Imm(int32(imm))})
}

// AndSR appends and.w #imm,sr.
func (b *Builder) AndSR(imm uint16) *Builder {
	return b.I(m68k.Instr{Op: m68k.ANDSR, Src: m68k.Imm(int32(imm))})
}

// Floating point.

// FmoveTo appends fmove src,FPn.
func (b *Builder) FmoveTo(src m68k.Operand, fp uint8) *Builder {
	return b.I(m68k.Instr{Op: m68k.FMOVE, Src: src, Fp: fp})
}

// FmoveFrom appends fmove FPn,dst (dst is a memory operand).
func (b *Builder) FmoveFrom(fp uint8, dst m68k.Operand) *Builder {
	return b.I(m68k.Instr{Op: m68k.FMOVE, Fp: fp, Dst: dst})
}

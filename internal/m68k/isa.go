package m68k

import (
	"fmt"
	"strings"
)

// Op identifies an instruction opcode.
type Op uint8

// Opcodes. The set follows the 68020 subset the Synthesis kernel
// actually relies on, plus KCALL, an escape to host services used to
// charge modeled costs for operations that are not expressed as VM
// code (documented where used).
const (
	NOP     Op = iota
	MOVE       // move src to dst
	LEA        // load effective address of src into dst (address register)
	CLR        // clear dst
	ADD        // dst += src
	SUB        // dst -= src
	MULU       // dst = dst * src (unsigned)
	DIVU       // dst = dst / src, remainder in upper word semantics simplified: quotient only
	AND        // dst &= src
	OR         // dst |= src
	EOR        // dst ^= src
	LSL        // dst <<= src
	LSR        // dst >>= src (logical)
	CMP        // set CCR from dst - src
	TST        // set CCR from src
	BTST       // test bit src of dst into Z
	TAS        // test and set high bit of byte dst (atomic)
	CAS        // compare and swap: if dst == Dc then dst = Du; CCR.Z on success
	BRA        // branch always
	BEQ        // branch if Z
	BNE        // branch if !Z
	BLT        // branch if N != V
	BLE        // branch if Z or N != V
	BGT        // branch if !Z and N == V
	BGE        // branch if N == V
	BHI        // branch if !C and !Z (unsigned >)
	BLS        // branch if C or Z (unsigned <=)
	BCC        // branch if !C (unsigned >=)
	BCS        // branch if C (unsigned <)
	BMI        // branch if N
	BPL        // branch if !N
	DBRA       // decrement Dn; branch if result != -1 (loop primitive)
	JMP        // jump to effective address
	JSR        // jump to subroutine
	RTS        // return from subroutine
	RTE        // return from exception (privileged)
	TRAP       // software trap through vector 32+n
	STOP       // load SR and wait for interrupt (privileged)
	HALT       // stop the machine (simulation control)
	MOVEM      // move multiple registers; Dir selects save/restore
	MOVEC      // move to/from control register (VBR, USP, SSP)
	ORSR       // SR |= imm (privileged; raise interrupt mask)
	ANDSR      // SR &= imm (privileged; lower interrupt mask)
	MOVEFSR    // move SR to dst (privileged)
	MOVETSR    // move src to SR (privileged)
	FMOVE      // FP move between FP register and memory/register
	FMOVEM     // FP move multiple registers (context switch)
	KCALL      // host service escape with modeled cycle charge
	opCount
)

var opNames = [opCount]string{
	NOP: "nop", MOVE: "move", LEA: "lea", CLR: "clr",
	ADD: "add", SUB: "sub", MULU: "mulu", DIVU: "divu",
	AND: "and", OR: "or", EOR: "eor",
	LSL: "lsl", LSR: "lsr",
	CMP: "cmp", TST: "tst", BTST: "btst",
	TAS: "tas", CAS: "cas",
	BRA: "bra", BEQ: "beq", BNE: "bne", BLT: "blt", BLE: "ble",
	BGT: "bgt", BGE: "bge", BHI: "bhi", BLS: "bls", BCC: "bcc",
	BCS: "bcs", BMI: "bmi", BPL: "bpl", DBRA: "dbra",
	JMP: "jmp", JSR: "jsr", RTS: "rts", RTE: "rte", TRAP: "trap",
	STOP: "stop", HALT: "halt", MOVEM: "movem", MOVEC: "movec",
	ORSR: "orsr", ANDSR: "andsr", MOVEFSR: "movefsr", MOVETSR: "movetsr",
	FMOVE: "fmove", FMOVEM: "fmovem", KCALL: "kcall",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsBranch reports whether the opcode is a conditional or
// unconditional PC-relative branch (target in Dst as code address).
func (o Op) IsBranch() bool { return o >= BRA && o <= DBRA }

// AddrMode selects how an operand is interpreted.
type AddrMode uint8

// Addressing modes (68020 subset plus scaled indexing).
const (
	ModeNone    AddrMode = iota
	ModeImm              // #imm
	ModeDReg             // Dn
	ModeAReg             // An
	ModeInd              // (An)
	ModePostInc          // (An)+
	ModePreDec           // -(An)
	ModeDisp             // d16(An)
	ModeIdx              // d8(An,Xn.L*scale)
	ModeAbs              // absolute address
)

var modeNames = []string{
	ModeNone: "none", ModeImm: "imm", ModeDReg: "dreg", ModeAReg: "areg",
	ModeInd: "ind", ModePostInc: "postinc", ModePreDec: "predec",
	ModeDisp: "disp", ModeIdx: "idx", ModeAbs: "abs",
}

// String returns a short name for the addressing mode.
func (m AddrMode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// IsMemory reports whether evaluating the operand touches memory.
func (m AddrMode) IsMemory() bool { return m >= ModeInd }

// Control registers addressable by MOVEC.
const (
	CtrlVBR    uint8 = iota // vector base register
	CtrlUSP                 // user stack pointer
	CtrlSSP                 // supervisor stack pointer
	CtrlUBase               // quaspace lower bound for user-state accesses
	CtrlULimit              // quaspace upper bound (0 disables checking)
	CtrlFPTrap              // nonzero: first FP instruction raises line-F
)

// Operand describes one instruction operand.
type Operand struct {
	Mode  AddrMode
	Reg   uint8 // base register: 0-7 = D0-D7 or A0-A7 depending on mode
	Idx   uint8 // index register for ModeIdx: 0-7 = Dn, 8-15 = An
	Scale uint8 // 1, 2, 4 or 8 for ModeIdx
	Imm   int32 // immediate value, displacement, or absolute address
}

// Convenience operand constructors used pervasively by the assembler
// and code templates.

// Imm returns an immediate operand.
func Imm(v int32) Operand { return Operand{Mode: ModeImm, Imm: v} }

// D returns a data-register operand Dn.
func D(n uint8) Operand { return Operand{Mode: ModeDReg, Reg: n} }

// A returns an address-register operand An.
func A(n uint8) Operand { return Operand{Mode: ModeAReg, Reg: n} }

// Ind returns an (An) operand.
func Ind(n uint8) Operand { return Operand{Mode: ModeInd, Reg: n} }

// PostInc returns an (An)+ operand.
func PostInc(n uint8) Operand { return Operand{Mode: ModePostInc, Reg: n} }

// PreDec returns a -(An) operand.
func PreDec(n uint8) Operand { return Operand{Mode: ModePreDec, Reg: n} }

// Disp returns a d(An) operand.
func Disp(d int32, n uint8) Operand { return Operand{Mode: ModeDisp, Reg: n, Imm: d} }

// Idx returns a d(An,Dx.L*scale) operand. The index register is a data
// register.
func Idx(d int32, an, dx, scale uint8) Operand {
	return Operand{Mode: ModeIdx, Reg: an, Idx: dx, Scale: scale, Imm: d}
}

// Abs returns an absolute-address operand.
func Abs(addr uint32) Operand { return Operand{Mode: ModeAbs, Imm: int32(addr)} }

// String renders the operand in 68k-style assembly syntax.
func (o Operand) String() string {
	switch o.Mode {
	case ModeNone:
		return ""
	case ModeImm:
		return fmt.Sprintf("#%d", o.Imm)
	case ModeDReg:
		return fmt.Sprintf("d%d", o.Reg)
	case ModeAReg:
		return fmt.Sprintf("a%d", o.Reg)
	case ModeInd:
		return fmt.Sprintf("(a%d)", o.Reg)
	case ModePostInc:
		return fmt.Sprintf("(a%d)+", o.Reg)
	case ModePreDec:
		return fmt.Sprintf("-(a%d)", o.Reg)
	case ModeDisp:
		return fmt.Sprintf("%d(a%d)", o.Imm, o.Reg)
	case ModeIdx:
		return fmt.Sprintf("%d(a%d,d%d*%d)", o.Imm, o.Reg, o.Idx, o.Scale)
	case ModeAbs:
		return fmt.Sprintf("($%x)", uint32(o.Imm))
	}
	return "?"
}

// Instr is one decoded instruction in code space.
type Instr struct {
	Op   Op
	Sz   uint8   // operand size in bytes: 1, 2 or 4 (0 means 4)
	Src  Operand // source operand
	Dst  Operand // destination operand
	Mask uint16  // register mask for MOVEM/FMOVEM
	Dir  uint8   // MOVEM direction: 0 = registers to memory, 1 = memory to registers
	Vec  uint8   // TRAP vector number / KCALL service id / MOVEC control register
	Fp   uint8   // FP register number for FMOVE; Dc for CAS
}

// Size returns the effective operand size in bytes.
func (i Instr) Size() uint8 {
	if i.Sz == 0 {
		return 4
	}
	return i.Sz
}

// ByteSize approximates the encoded size of the instruction in bytes,
// used for the kernel-size accounting in Section 6.4 of the paper.
func (i Instr) ByteSize() int {
	n := 2 // opcode word
	n += operandBytes(i.Src)
	n += operandBytes(i.Dst)
	if i.Op == MOVEM || i.Op == FMOVEM {
		n += 2 // register mask word
	}
	return n
}

func operandBytes(o Operand) int {
	switch o.Mode {
	case ModeImm, ModeAbs:
		return 4
	case ModeDisp:
		return 2
	case ModeIdx:
		return 2
	default:
		return 0
	}
}

func szSuffix(sz uint8) string {
	switch sz {
	case 1:
		return ".b"
	case 2:
		return ".w"
	default:
		return ".l"
	}
}

// String disassembles the instruction.
func (i Instr) String() string {
	switch i.Op {
	case NOP, RTS, RTE, HALT:
		return i.Op.String()
	case TRAP:
		return fmt.Sprintf("trap #%d", i.Vec)
	case KCALL:
		return fmt.Sprintf("kcall #%d", i.Vec)
	case STOP:
		return fmt.Sprintf("stop #$%04x", uint16(i.Src.Imm))
	case MOVEM:
		if i.Dir == 0 {
			return fmt.Sprintf("movem.l #$%04x,%s", i.Mask, i.Dst)
		}
		return fmt.Sprintf("movem.l %s,#$%04x", i.Src, i.Mask)
	case FMOVEM:
		if i.Dir == 0 {
			return fmt.Sprintf("fmovem #$%04x,%s", i.Mask, i.Dst)
		}
		return fmt.Sprintf("fmovem %s,#$%04x", i.Src, i.Mask)
	case MOVEC:
		return fmt.Sprintf("movec %s,ctrl%d", i.Src, i.Vec)
	case ORSR:
		return fmt.Sprintf("or.w %s,sr", i.Src)
	case ANDSR:
		return fmt.Sprintf("and.w %s,sr", i.Src)
	case CAS:
		return fmt.Sprintf("cas%s d%d,d%d,%s", szSuffix(i.Size()), i.Src.Reg, i.Fp, i.Dst)
	case FMOVE:
		if i.Dst.Mode == ModeNone {
			return fmt.Sprintf("%s %s,fp%d", i.Op, i.Src, i.Fp)
		}
		return fmt.Sprintf("%s fp%d,%s", i.Op, i.Fp, i.Dst)
	}
	if i.Op.IsBranch() {
		if i.Op == DBRA {
			return fmt.Sprintf("dbra d%d,%d", i.Src.Reg, i.Dst.Imm)
		}
		return fmt.Sprintf("%s %d", i.Op, i.Dst.Imm)
	}
	if i.Src.Mode == ModeNone && i.Dst.Mode == ModeNone {
		return i.Op.String()
	}
	if i.Src.Mode == ModeNone {
		return fmt.Sprintf("%s%s %s", i.Op, szSuffix(i.Size()), i.Dst)
	}
	if i.Dst.Mode == ModeNone {
		return fmt.Sprintf("%s%s %s", i.Op, szSuffix(i.Size()), i.Src)
	}
	return fmt.Sprintf("%s%s %s,%s", i.Op, szSuffix(i.Size()), i.Src, i.Dst)
}

// Disassemble renders n instructions of code space starting at addr.
func Disassemble(code []Instr, addr uint32, n int) string {
	var b strings.Builder
	for i := 0; i < n && int(addr)+i < len(code); i++ {
		fmt.Fprintf(&b, "%6d: %s\n", addr+uint32(i), code[addr+uint32(i)])
	}
	return b.String()
}
